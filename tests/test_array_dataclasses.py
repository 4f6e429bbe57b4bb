"""Every dataclass of the package with a numpy array field is declared
``eq=False``: a generated ``__eq__`` compares the fields as a tuple, and an
array field makes that raise "truth value of an array ... is ambiguous"
instead of answering.

The check imports each module, takes the dataclasses it defines and looks
their fields up through ``dataclasses.fields``, with the annotations
resolved; an array inside another type (``Optional[np.ndarray]``,
``Tuple[np.ndarray, ...]``) counts too.
"""

import dataclasses
import importlib
import typing
from pathlib import Path
from typing import Optional, Tuple

import numpy as np
import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "hoedeform"
MODULES = sorted(SRC.glob("*.py"))


def _holds_array(tp) -> bool:
    """Whether the resolved annotation ``tp`` is or contains ``np.ndarray``."""
    return tp is np.ndarray or any(_holds_array(arg) for arg in typing.get_args(tp))


def _array_fields_compared(cls) -> list:
    """The array fields of dataclass ``cls`` if it generates ``__eq__``, else []."""
    if not cls.__dataclass_params__.eq:
        return []
    hints = typing.get_type_hints(cls)
    return [f.name for f in dataclasses.fields(cls) if _holds_array(hints[f.name])]


def _dataclasses_of(module) -> list:
    return [obj for obj in vars(module).values()
            if isinstance(obj, type) and dataclasses.is_dataclass(obj) and obj.__module__ == module.__name__]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_array_dataclasses_are_eq_false(path):
    module = importlib.import_module("hoedeform" if path.stem == "__init__" else f"hoedeform.{path.stem}")
    bad = [f"{cls.__name__}.{name}" for cls in _dataclasses_of(module) for name in _array_fields_compared(cls)]
    assert not bad, "array fields of dataclasses that generate __eq__: " + ", ".join(bad)


def test_the_check_sees_array_fields():
    """Plain, optional and nested array fields are found; eq=False clears them."""

    @dataclasses.dataclass(frozen=True)
    class Compared:
        a: np.ndarray
        b: Optional[np.ndarray]
        c: Tuple[np.ndarray, ...]
        d: float

    @dataclasses.dataclass(frozen=True, eq=False)
    class NotCompared:
        a: np.ndarray

    assert _array_fields_compared(Compared) == ["a", "b", "c"]
    assert _array_fields_compared(NotCompared) == []
    with pytest.raises(ValueError, match="ambiguous"):
        Compared(np.zeros(2), None, (), 0.0) == Compared(np.zeros(2), None, (), 0.0)
