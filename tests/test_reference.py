"""Pinned physics: shipped scenes against reference outputs in tests/reference/.

The references were written by the CLI before the pipeline stages were
shared between ``run`` and the step verbs. Every float must agree within a
relative error of 1e-12 (an absolute 1e-12 for magnitudes below 1 mm or
1 rad/um); headers, statuses, booleans, integers and row counts must match
exactly. Bytes are not compared, so a change of summation order that moves
the last ulp still passes.
"""

import contextlib
import csv
import io
import json
from pathlib import Path

import pytest

from hoedeform import cli

REF_DIR = Path(__file__).resolve().parent / "reference"
CONFIG_DIR = Path(__file__).resolve().parent.parent / "src" / "hoedeform" / "configs"
REL_TOL = 1e-12

# Columns compared as text; every other CSV column is a float.
_EXACT_COLUMNS = {"status", "ray_index"}


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), 1.0)


def _compare_json(ref, got, where: str) -> None:
    if isinstance(ref, bool) or isinstance(got, bool) or ref is None or isinstance(ref, str):
        assert got == ref, where
    elif isinstance(ref, float) or isinstance(got, float):
        assert isinstance(got, (int, float)), where
        assert _close(ref, got), f"{where}: {got!r} vs reference {ref!r}"
    elif isinstance(ref, int):
        assert got == ref and isinstance(got, int), where
    elif isinstance(ref, list):
        assert isinstance(got, list) and len(got) == len(ref), f"{where}: length"
        for i, (r, g) in enumerate(zip(ref, got)):
            _compare_json(r, g, f"{where}[{i}]")
    else:
        assert isinstance(got, dict) and sorted(got) == sorted(ref), f"{where}: keys"
        for key in ref:
            _compare_json(ref[key], got[key], f"{where}.{key}")


def _compare_csv(ref_path: Path, got_path: Path) -> None:
    ref_rows = list(csv.reader(ref_path.read_text().splitlines()))
    got_rows = list(csv.reader(got_path.read_text().splitlines()))
    assert got_rows[0] == ref_rows[0], f"{got_path.name}: header"
    assert len(got_rows) == len(ref_rows), f"{got_path.name}: row count"
    header = ref_rows[0]
    for n, (r, g) in enumerate(zip(ref_rows[1:], got_rows[1:]), start=2):
        assert len(g) == len(r), f"{got_path.name} line {n}: field count"
        for col, a, b in zip(header, r, g):
            where = f"{got_path.name} line {n} {col}"
            if col in _EXACT_COLUMNS or a == "" or b == "":
                assert b == a, where
            else:
                assert _close(float(a), float(b)), f"{where}: {b} vs reference {a}"


def _compare_dirs(ref: Path, got: Path) -> None:
    names = sorted(p.name for p in ref.iterdir())
    assert sorted(p.name for p in got.iterdir()) == names
    for name in names:
        if name.endswith(".json"):
            _compare_json(json.loads((ref / name).read_text()), json.loads((got / name).read_text()), name)
        else:
            _compare_csv(ref / name, got / name)


def _cli(*argv: str) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(list(argv)) == 0, argv


@pytest.mark.parametrize("scene", [
    "plane_wave_planar",
    "plane_wave_curved_recorded",
    "plane_wave_deformed",
    "combiner_deformed",
])
def test_run_matches_reference(tmp_path, scene):
    out = tmp_path / scene
    _cli("run", "--config", str(CONFIG_DIR / f"{scene}.json"), "--out", str(out))
    _compare_dirs(REF_DIR / scene, out)


def test_invert_then_deform_matches_reference(tmp_path):
    cfg = str(CONFIG_DIR / "combiner_invert.json")
    out = tmp_path / "combiner_invert"
    _cli("invert", "--config", cfg, "--out", str(out))
    _cli("deform", "--config", cfg, "--out", str(out), "--field", str(out / "field_planar.json"))
    _compare_dirs(REF_DIR / "combiner_invert", out)
