"""tools/bench.py still runs against the package.

The tool imports two checkouts' packages under names of its own and calls
their functions by module and name, so a rename in the package would
otherwise only show when the next benchmark runs. Here this checkout is loaded
under both names and every op runs on a 4 x 8 polar grid, through the tool's
own functions.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("bench_tool", ROOT / "tools" / "bench.py")
bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench)


@pytest.fixture
def sides():
    yield [bench.load(ROOT, side) for side in ("base", "change")]
    for name in [name for name in sys.modules if name.startswith(("hoedeform_base", "hoedeform_change"))]:
        del sys.modules[name]


def test_every_op_runs_on_both_sides_and_they_agree(tmp_path, sides):
    assert [package.__name__ for package in sides] == ["hoedeform_base", "hoedeform_change"]
    assert sides[0].scene is not sides[1].scene
    outs = {side: tmp_path / side for side in ("base", "change")}
    tables = {side: bench.op_table(side, 4, 8, out) for side, out in outs.items()}
    assert bench.outputs(tables["base"], outs["base"]) == bench.outputs(tables["change"], outs["change"])
    for side, ops in tables.items():
        for op in ops.values():
            op()
            bench.clear(outs[side])


@pytest.mark.parametrize("rounds, needed", [(9, None), (10, 10), (20, 18), (30, 24), (40, 31), (60, 43)])
def test_needed_wins_give_a_two_sided_p_below_the_level(rounds, needed):
    assert bench.needed(rounds) == needed


@pytest.mark.parametrize("wins, verdict", [(24, "faster"), (23, "unresolved"), (6, "slower"), (7, "unresolved")])
def test_sign_test_verdict_over_30_rounds(wins, verdict):
    base = [1.0] * 30
    change = [0.9] * wins + [1.1] * (30 - wins)
    assert bench.verdict(base, change) == verdict
    assert bench.verdict(change, base) == {"faster": "slower", "slower": "faster"}.get(verdict, verdict)


def test_ties_count_for_neither_side():
    assert bench.verdict([1.0] * 30, [0.9] * 23 + [1.0] * 7) == "unresolved"
