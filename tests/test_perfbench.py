"""The benchmark harness in perfbench/ still runs against the package.

perfbench imports package names that no pipeline code uses (the per-sample
views and the one-point ``local_wavevector``), so deleting one of them would
otherwise only show when the benchmark runs. Each workload's op and check run
here on a 4 x 8 polar grid, through the harness's own modules.
"""

import dataclasses
import importlib.util
import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
spans = _load("spans")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_op_and_check_pass_on_a_small_grid(tmp_path, name):
    wl = dataclasses.replace(workloads.WORKLOADS[name], grid=(4, 8))
    cfg = tmp_path / "scene.json"
    cfg.write_text(json.dumps(wl.config(1)), encoding="utf-8")
    out = tmp_path / "out"
    out.mkdir()
    res = wl.op(cfg, out, spans.NullRecorder())
    assert wl.check(res, out, reference=True) == []
    assert len(res["records"]) == wl.samples
