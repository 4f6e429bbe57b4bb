"""The package runs on the numpy it declares (>= 1.23): it names no numpy
function or module that numpy 2.0 or later added.

The check reads the source, so it holds whatever numpy the suite runs on;
``test_numtext.test_reader_needs_no_numpy_2_function`` runs the reader
without one such function.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "hoedeform"

# Names that numpy has only from 2.0 on (2.1 and 2.2 for the last ones): the
# array API aliases and the functions and modules added with them.
NUMPY_2_ONLY = {
    "acos", "acosh", "asin", "asinh", "atan", "atan2", "atanh", "astype", "bitwise_count",
    "bitwise_invert", "bitwise_left_shift", "bitwise_right_shift", "concat", "cumulative_prod",
    "cumulative_sum", "isdtype", "matrix_transpose", "matvec", "permute_dims", "pow", "strings",
    "trapezoid", "unique_all", "unique_counts", "unique_inverse", "unique_values", "unstack", "vecdot",
    "vecmat",
}


def _numpy_names(tree: ast.AST):
    """(line, name) of every ``np.<name>`` or ``numpy.<name>`` attribute and
    every name imported from numpy, in a module that imports numpy as np."""
    aliases = {"numpy"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases.update(a.asname or a.name for a in node.names if a.name == "numpy")
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            yield from ((node.lineno, a.name) for a in node.names)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
            yield node.lineno, node.attr


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_numpy_2_names(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = [f"{path.name}:{line}: np.{name}" for line, name in _numpy_names(tree) if name in NUMPY_2_ONLY]
    assert not found, "numpy 2 only: " + ", ".join(found)


def test_the_check_sees_numpy_names():
    """The walk finds the numpy names a module uses, under its alias too."""
    tree = ast.parse("import numpy as xp\nfrom numpy import concat\nxp.vecdot(a, b)\nxp.take(a, i)\n")
    assert sorted(_numpy_names(tree)) == [(2, "concat"), (3, "vecdot"), (4, "take")]
