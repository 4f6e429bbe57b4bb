"""Every module-level private name of the package is read somewhere in it:
a helper or a constant that nothing uses any more is deleted with the code
that used it, not left behind.

The check reads the source: a name counts as used where it is loaded, as a
plain name or as the attribute of a module, in any module of the package.
Tests do not count, so a helper kept only for them is flagged too.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "hoedeform"
MODULES = sorted(SRC.glob("*.py"))


def _private_definitions(tree: ast.Module):
    """(line, name) of every private name a module binds at its top level:
    its functions, classes and assignment targets, dunder names aside."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        yield from ((node.lineno, name) for name in names if name.startswith("_") and not name.startswith("__"))


def _used_names(trees) -> set:
    """The names loaded anywhere in ``trees``, plain or as an attribute."""
    used = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                used.add(node.attr)
    return used


@pytest.fixture(scope="module")
def used():
    return _used_names(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)) for path in MODULES)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_private_name_is_used(path, used):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    unused = [f"{path.name}:{line}: {name}" for line, name in _private_definitions(tree) if name not in used]
    assert not unused, "defined but never used in the package: " + ", ".join(unused)


def test_the_check_sees_unused_private_names():
    """Definitions of every kind are found, and only loads count as uses."""
    tree = ast.parse("_A, (_B, c) = 1, (2, 3)\n_C: int = 4\n_D = 5\n__all__ = []\n"
                     "def _f(): return _A + m._C\nclass _K: pass\n_D += 1\nx = _f\n")
    assert list(_private_definitions(tree)) == [(1, "_A"), (1, "_B"), (2, "_C"), (3, "_D"), (5, "_f"), (6, "_K"),
                                                (7, "_D")]
    used = _used_names([tree])
    assert [name for _, name in _private_definitions(tree) if name not in used] == ["_B", "_D", "_K", "_D"]
