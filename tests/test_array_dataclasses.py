"""Every dataclass of the package with a numpy array or a callable field is
declared ``eq=False``: a generated ``__eq__`` compares the fields as a tuple.
An array field makes that raise "truth value of an array ... is ambiguous"
instead of answering, and a callable field, compared by identity, makes two
equal values, such as two ``SurfaceProfile.sphere_cap(50, 10)`` with their
own closures, compare unequal.

The check imports each module, takes the dataclasses it defines and looks
their fields up through ``dataclasses.fields``, with the annotations
resolved; an array or a callable inside another type
(``Optional[np.ndarray]``, ``Tuple[np.ndarray, ...]``,
``Optional[Callable]``) counts too.
"""

import collections.abc
import dataclasses
import importlib
import typing
from pathlib import Path
from typing import Callable, Optional, Tuple

import numpy as np
import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "hoedeform"
MODULES = sorted(SRC.glob("*.py"))


def _holds_uncomparable(tp) -> bool:
    """Whether the resolved annotation ``tp`` is or contains ``np.ndarray`` or a callable."""
    if tp is np.ndarray or tp is collections.abc.Callable or typing.get_origin(tp) is collections.abc.Callable:
        return True
    return any(_holds_uncomparable(arg) for arg in typing.get_args(tp))


def _uncomparable_fields(cls) -> list:
    """The array and callable fields of dataclass ``cls`` if it generates ``__eq__``, else []."""
    if not cls.__dataclass_params__.eq:
        return []
    hints = typing.get_type_hints(cls)
    return [f.name for f in dataclasses.fields(cls) if _holds_uncomparable(hints[f.name])]


def _dataclasses_of(module) -> list:
    return [obj for obj in vars(module).values()
            if isinstance(obj, type) and dataclasses.is_dataclass(obj) and obj.__module__ == module.__name__]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_array_dataclasses_are_eq_false(path):
    module = importlib.import_module("hoedeform" if path.stem == "__init__" else f"hoedeform.{path.stem}")
    bad = [f"{cls.__name__}.{name}" for cls in _dataclasses_of(module) for name in _uncomparable_fields(cls)]
    assert not bad, "array or callable fields of dataclasses that generate __eq__: " + ", ".join(bad)


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

    assert _uncomparable_fields(Compared) == ["a", "b", "c"]
    assert _uncomparable_fields(NotCompared) == []
    with pytest.raises(ValueError, match="ambiguous"):
        Compared(np.zeros(2), None, (), 0.0) == Compared(np.zeros(2), None, (), 0.0)


def test_the_check_sees_callable_fields():
    """Plain, parametrized and optional callable fields are found; eq=False
    clears them. Two values with equal closures compare unequal under the
    generated ``__eq__``."""

    @dataclasses.dataclass(frozen=True)
    class Compared:
        f: Callable
        g: Callable[[float], float]
        h: Optional[Callable[[float], float]]
        d: float

    @dataclasses.dataclass(frozen=True, eq=False)
    class NotCompared:
        f: Callable[[float], float]

    assert _uncomparable_fields(Compared) == ["f", "g", "h"]
    assert _uncomparable_fields(NotCompared) == []

    def made(r):
        return Compared(abs, lambda s: r * s, None, r)

    assert made(2.0) != made(2.0)
