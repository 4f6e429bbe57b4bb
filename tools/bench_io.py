"""Time the per-sample file writers and readers and the focal scan of two checkouts and write a BENCH json.

Run from the root of a checkout, with a second checkout to compare with:

    python3 tools/bench_io.py --base ../parent --out BENCH_20.json

The scene is ``combiner_deformed.json`` on the polar grids 10x16, 40x64
and 100x160 (161, 2 561 and 16 001 samples). For each grid and round, one
fresh interpreter per checkout (the base first, then this one) records
the field, deforms and traces it, intersects the detector planes and runs
the focal scan, then times ``--reps`` calls of the focal scan and of each writer and
reader: ``fieldio.save`` (the field and the deformed field, as one op saves
them), ``scene.write_rays``, ``scene.write_hits``, ``scene.focal_scan``
(the config's 801-plane scan of the traced rays), ``scene.write_spots``,
``fieldio.load`` (both field files again), ``scene.read_rays``, and the
text readers that take the files the block readers refuse:
``fieldio.load_text`` (``fieldio._load_text`` on both field files) and
``scene.read_rays_text`` (``scene._read_text``). Each
call is stored raw and divided by the mean of ``perfbench.run``'s
``timed_reference_loop()`` run just before and after it, so that files
taken on a host whose speed drifts stay comparable, with the minor page
faults (``ru_minflt``) the call took. The file holds the medians and the
quartiles over all calls of all rounds, raw and divided, the mean page
faults per call and each writer's and reader's tracemalloc peak. The
divisor's own spread between processes can move a divided time of a few
ms against its raw time, so a change in an op is resolved only when the
raw and the divided medians move the same way, each by more than the
distance between the base's quartiles of that kind; an op that the two
checkouts share, such as a writer that a reader change leaves alone, shows
how far an op strays without a change.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GRIDS = ((10, 16), (40, 64), (100, 160))
OPS = ("fieldio.save", "scene.write_rays", "scene.write_hits", "scene.focal_scan", "scene.write_spots", "fieldio.load",
       "scene.read_rays", "fieldio.load_text", "scene.read_rays_text")

CHILD = r"""
import atexit, json, resource, shutil, sys, tempfile, time, tracemalloc
from pathlib import Path
sys.path.insert(0, sys.argv[1])
from run import timed_reference_loop
from hoedeform import fieldio, scene
from hoedeform.config import load_scene_config
from hoedeform.deformation import induce_forward
from hoedeform.fieldio import load_field, save_field
from hoedeform.recording import record
from hoedeform.scene import (focal_scan, intersect_plane, read_rays_csv, trace_field, write_hits_csv, write_rays_csv,
                             write_spots_csv)

doc = json.loads(Path(sys.argv[2]).read_text())
doc["recording"]["grid"].update(n_s=int(sys.argv[3]), n_phi=int(sys.argv[4]))
out = Path(tempfile.mkdtemp())
atexit.register(shutil.rmtree, out, True)
(out / "scene.json").write_text(json.dumps(doc))
cfg = load_scene_config(out / "scene.json")
field = record(cfg.recording.w1, cfg.recording.w2, cfg.recording.carrier, cfg.recording.grid)
deformed = induce_forward(field, cfg.deformation.target_profile, cfg.deformation.projection)
trace = trace_field(deformed, cfg.probe)
rays = trace.rays()
planes = [intersect_plane(rays, z) for z in cfg.analysis.detector_z_mm]
spec = cfg.analysis.focal_scan
scan = focal_scan(rays, (spec.z_min, spec.z_max), spec.n_planes)
ops = {
    "fieldio.save": lambda: (save_field(field, out / "field.json"), save_field(deformed, out / "deformed.json")),
    "scene.write_rays": lambda: write_rays_csv(trace, out / "rays.csv"),
    "scene.write_hits": lambda: write_hits_csv(planes, out / "hits.csv"),
    "scene.focal_scan": lambda: focal_scan(rays, (spec.z_min, spec.z_max), spec.n_planes),
    "scene.write_spots": lambda: write_spots_csv(scan.reports, out / "spots.csv"),
    "fieldio.load": lambda: (load_field(out / "field.json"), load_field(out / "deformed.json")),
    "scene.read_rays": lambda: read_rays_csv(out / "rays.csv"),
    "fieldio.load_text": lambda: (fieldio._load_text(out / "field.json"), fieldio._load_text(out / "deformed.json")),
    "scene.read_rays_text": lambda: scene._read_text(out / "rays.csv"),
}
result = {"samples": len(field)}
for name, op in ops.items():
    op()
    tracemalloc.start()
    op()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    op()  # the heap as it is after a call, not as tracemalloc leaves it
    calls, faults, ref = [], 0, timed_reference_loop()
    for _ in range(int(sys.argv[5])):
        f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        t0 = time.perf_counter()
        op()
        dt = time.perf_counter() - t0
        faults += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0
        after = timed_reference_loop()
        calls.append((dt, dt / ((ref + after) / 2)))
        ref = after
    result[name] = {"calls": calls, "peak_bytes": peak, "minflt": faults / len(calls)}
print(json.dumps(result))
"""


def git(checkout: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(checkout), *args], capture_output=True, text=True).stdout.strip()


def child(checkout: Path, grid: tuple, reps: int) -> dict:
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    env.pop("HOE_THREADS", None)
    res = subprocess.run([sys.executable, "-c", CHILD, str(ROOT / "perfbench"),
                          str(ROOT / "src/hoedeform/configs/combiner_deformed.json"), *map(str, grid), str(reps)],
                         capture_output=True, text=True, env=env, check=True)
    return json.loads(res.stdout)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", type=Path, required=True, help="the checkout to compare with")
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--rounds", type=int, default=5)
    ap.add_argument("--reps", type=int, default=9)
    args = ap.parse_args()
    trees = {"base": args.base.resolve(), "change": ROOT}
    runs = {(tree, grid): [] for tree in trees for grid in GRIDS}
    for _ in range(args.rounds):
        for grid in GRIDS:
            for tree, checkout in trees.items():
                runs[tree, grid].append(child(checkout, grid, args.reps))
    import numpy

    results = {}
    for grid in GRIDS:
        samples = runs["change", grid][0]["samples"]
        by_op = results[str(samples)] = {"grid": f"polar {grid[0]}x{grid[1]}"}
        for name in OPS:
            row = by_op[name] = {}
            for tree in trees:
                calls = [c for run in runs[tree, grid] for c in run[name]["calls"]]
                row[tree] = {"median_s": statistics.median(c[0] for c in calls),
                             "quartiles_s": statistics.quantiles([c[0] for c in calls], n=4)[::2],
                             "median_ref": statistics.median(c[1] for c in calls),
                             "quartiles_ref": statistics.quantiles([c[1] for c in calls], n=4)[::2],
                             "minflt_per_call": statistics.mean(run[name]["minflt"] for run in runs[tree, grid]),
                             "peak_bytes": max(run[name]["peak_bytes"] for run in runs[tree, grid])}
            row["change_over_base_s"] = row["change"]["median_s"] / row["base"]["median_s"]
            row["change_over_base_ref"] = row["change"]["median_ref"] / row["base"]["median_ref"]
            moves = []
            for kind in ("s", "ref"):
                q1, q3 = row["base"][f"quartiles_{kind}"]
                move = row["change"][f"median_{kind}"] - row["base"][f"median_{kind}"]
                moves.append(math.copysign(1.0, move) if abs(move) > q3 - q1 else 0.0)
            row["resolved"] = moves[0] == moves[1] != 0.0
    doc = {
        "what": "median and quartile seconds of the focal scan and of each writer and reader, raw and divided by "
                "perfbench.run.timed_reference_loop() run around it, its minor page faults per call and its "
                "tracemalloc peak; combiner_deformed.json on polar grids. resolved: the raw and the divided "
                "medians move the same way, each by more than the base's quartile distance of that kind",
        "command": f"python3 tools/bench_io.py --base <checkout of the base commit> --out {args.out.name} "
                   f"--rounds {args.rounds} --reps {args.reps}",
        "commits": {tree: git(checkout, "rev-parse", "HEAD") for tree, checkout in trees.items()},
        "env": {"python": platform.python_version(), "numpy": numpy.__version__, "nproc": os.cpu_count(),
                "machine": platform.machine(), "calls_per_op": args.rounds * args.reps},
        "results": results,
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
