"""Time every stage and file op of this checkout against another's, paired in one process, into a BENCH json.

Run from the root of a checkout, with a second checkout to compare with:

    python3 tools/bench.py --base ../parent --out BENCH_28.json

The scene is ``combiner_deformed.json`` on the polar grids 10x16, 40x64 and
100x160 (161, 2 561 and 16 001 samples). The ops are in ``op_table``: the
stages from ``config.load`` to the 801-plane ``scene.focal_scan``, with
``deformation.forward`` both orthogonal (the config's) and central with
C_z = 500 mm, and every file writer and reader, the text readers
``fieldio._load_text`` and ``scene._read_text`` included. A write goes to a
new path and the file is removed after the clock stops, so that no call pays
for freeing the pages of a file an earlier call wrote.

Each round starts one fresh child that imports both checkouts' packages, as
``hoedeform_base`` and ``hoedeform_change``, so that each side's relative
imports resolve inside its own tree. Before any timing it checks that both
sides write the same bytes and read the same bits. It then calls every op of
every grid in the order A B B A and keeps each side's shorter call; A, the
side imported and called first, alternates from round to round. An op's
verdict is a sign test over the rounds: the change is "faster" (or "slower")
when it wins (or loses) at least ``needed(rounds)`` of them, ties counting
for neither side, a two-sided p < 0.002. That is 24 of 30 rounds; ``needed``
gives 18 of 20, 31 of 40 and 43 of 60, and fewer than 10 rounds never
resolve. Each op also gets the median and quartiles of each side's seconds
and of the per-round ratios change/base.

A shared process hides what the two sides share: one numpy, one heap and one
import order. A B B A cancels a drift of the host's speed within a round and
the alternation cancels which side goes first, but an op that leaves the heap
fragmented slows whatever runs after it, on either side. Heap effects show
only in the solo children: each round, one child per tree and grid imports
that tree alone and records each op's tracemalloc peak and the minor page
faults (``ru_minflt``) of one call. They give no time verdict.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
GRIDS = ((10, 16), (40, 64), (100, 160))
P_MAX = 0.002  # two-sided sign-test level of a verdict
FIELD, RAYS = ("s", "phi", "pos", "g"), ("origins", "directions", "weights")
READS = ("fieldio.load", "scene.read_rays", "fieldio.load_text", "scene.read_rays_text")


def load(checkout: Path, side: str):
    """The checkout's package, imported as ``hoedeform_<side>``; its relative imports resolve in that tree."""
    src = checkout / "src" / "hoedeform"
    spec = importlib.util.spec_from_file_location(f"hoedeform_{side}", src / "__init__.py",
                                                  submodule_search_locations=[str(src)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = package  # dataclasses and relative imports look the package up here
    spec.loader.exec_module(package)
    return package


def op_table(side: str, n_s: int, n_phi: int, out: Path) -> dict:
    """The ops of one loaded side at one grid. Writes go to ``out``/new, which ``clear`` empties."""
    config, deformation, fieldio, recording, scene, surfaces = (
        importlib.import_module(f"hoedeform_{side}.{name}")
        for name in ("config", "deformation", "fieldio", "recording", "scene", "surfaces"))
    (out / "new").mkdir(parents=True)
    doc = json.loads((ROOT / "src/hoedeform/configs/combiner_deformed.json").read_text())
    doc["recording"]["grid"].update(n_s=n_s, n_phi=n_phi)
    (out / "scene.json").write_text(json.dumps(doc))
    cfg = config.load_scene_config(out / "scene.json")
    rec, bend, spec = cfg.recording, cfg.deformation, cfg.analysis.focal_scan
    central = surfaces.Projection.from_center_z(500.0)
    field = recording.record(rec.w1, rec.w2, rec.carrier, rec.grid)
    deformed = deformation.induce_forward(field, bend.target_profile, bend.projection)
    trace = scene.trace_field(deformed, cfg.probe)
    rays = trace.rays()
    planes = [scene.intersect_plane(rays, z) for z in cfg.analysis.detector_z_mm]
    scan = scene.focal_scan(rays, (spec.z_min, spec.z_max), spec.n_planes)
    fieldio.save_field(field, out / "field.json")
    fieldio.save_field(deformed, out / "deformed.json")
    scene.write_rays_csv(trace, out / "rays.csv")
    new = out / "new"
    return {
        "config.load": lambda: config.load_scene_config(out / "scene.json"),
        "recording.record": lambda: recording.record(rec.w1, rec.w2, rec.carrier, rec.grid),
        "deformation.forward": lambda: deformation.induce_forward(field, bend.target_profile, bend.projection),
        "deformation.forward_central": lambda: deformation.induce_forward(field, bend.target_profile, central),
        "deformation.inverse": lambda: deformation.induce_inverse(deformed, bend.projection),
        "scene.trace": lambda: scene.trace_field(deformed, cfg.probe),
        "scene.intersect": lambda: [scene.intersect_plane(rays, z) for z in cfg.analysis.detector_z_mm],
        "fieldio.save": lambda: (fieldio.save_field(field, new / "field.json"),
                                 fieldio.save_field(deformed, new / "deformed.json")),
        "scene.write_rays": lambda: scene.write_rays_csv(trace, new / "rays.csv"),
        "scene.write_hits": lambda: scene.write_hits_csv(planes, new / "hits.csv"),
        "scene.focal_scan": lambda: scene.focal_scan(rays, (spec.z_min, spec.z_max), spec.n_planes),
        "scene.write_spots": lambda: scene.write_spots_csv(scan.reports, new / "spots.csv"),
        "fieldio.load": lambda: (fieldio.load_field(out / "field.json"), fieldio.load_field(out / "deformed.json")),
        "scene.read_rays": lambda: scene.read_rays_csv(out / "rays.csv"),
        "fieldio.load_text": lambda: (fieldio._load_text(out / "field.json"),
                                      fieldio._load_text(out / "deformed.json")),
        "scene.read_rays_text": lambda: scene._read_text(out / "rays.csv"),
    }


def clear(out: Path) -> None:
    for path in (out / "new").iterdir():
        path.unlink()


def outputs(ops: dict, out: Path) -> list:
    """The bytes of every file the side's write ops make and the bits its read ops return."""
    for name, op in ops.items():
        if name.startswith(("fieldio.save", "scene.write")):
            op()
    data = [path.read_bytes() for path in sorted((out / "new").iterdir())]
    clear(out)
    for name in READS:
        read = ops[name]()
        for value in read if isinstance(read, tuple) else (read,):
            data += [getattr(value, a).tobytes() for a in (FIELD if hasattr(value, "g") else RAYS)]
    return data


def paired(base: str, change: str, first: str) -> dict:
    """One round: the shorter of two calls of each side, A B B A, for every op at every grid."""
    order = ("base", "change") if first == "base" else ("change", "base")
    for side in order:
        load(Path(base if side == "base" else change), side)
    times = {}
    with tempfile.TemporaryDirectory() as tmp:
        for n_s, n_phi in GRIDS:
            outs = {side: Path(tmp) / f"{side}_{n_s}" for side in order}
            tables = {side: op_table(side, n_s, n_phi, outs[side]) for side in order}
            if outputs(tables["base"], outs["base"]) != outputs(tables["change"], outs["change"]):
                raise SystemExit(f"the two sides write or read different data at {n_s}x{n_phi}")
            for name in tables["base"]:
                calls = {side: [] for side in order}
                for side in order + order + order[::-1]:  # a warm-up call of each side, then A B B A
                    gc.collect()
                    t0 = time.perf_counter()
                    tables[side][name]()
                    calls[side].append(time.perf_counter() - t0)
                    clear(outs[side])
                times.setdefault(f"{n_s}x{n_phi}", {})[name] = {side: min(t[1:]) for side, t in calls.items()}
    return times


def solo(checkout: str, n_s: int, n_phi: int) -> dict:
    """Each op's tracemalloc peak and the minor page faults of one call, with one tree in the process."""
    load(Path(checkout), "solo")
    result = {}
    with tempfile.TemporaryDirectory() as scratch:
        tmp = Path(scratch)
        for name, op in op_table("solo", n_s, n_phi, tmp).items():
            op()
            clear(tmp)
            tracemalloc.start()
            op()
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            clear(tmp)
            op()  # the heap as a call leaves it, not as tracemalloc leaves it
            clear(tmp)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            op()
            result[name] = {"peak_bytes": peak,
                            "minflt": resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before}
            clear(tmp)
    return result


def needed(rounds: int):
    """The fewest of ``rounds`` wins that give a two-sided sign-test p below P_MAX, or None if no count does."""
    return next((k for k in range(rounds + 1)
                 if 2 * sum(math.comb(rounds, j) for j in range(k, rounds + 1)) < P_MAX * 2 ** rounds), None)


def verdict(base: list, change: list) -> str:
    """"faster" or "slower" when the change wins or loses at least needed(rounds) rounds, else "unresolved"."""
    k = needed(len(base))
    if k is not None and sum(c < b for b, c in zip(base, change)) >= k:
        return "faster"
    if k is not None and sum(c > b for b, c in zip(base, change)) >= k:
        return "slower"
    return "unresolved"


def spread(values: list) -> tuple:
    return statistics.median(values), statistics.quantiles(values, n=4)[::2]


def child(function: str, *args) -> dict:
    """``function(*args)`` of this file, run in a fresh interpreter."""
    code = (f"import json, sys; sys.path.insert(0, {str(ROOT / 'tools')!r}); import bench; "
            f"print(json.dumps(bench.{function}(*json.loads(sys.argv[1]))))")
    res = subprocess.run([sys.executable, "-c", code, json.dumps(args)], capture_output=True, text=True)
    if res.returncode:
        sys.exit(f"{function}{args} failed:\n{res.stderr}")
    return json.loads(res.stdout)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", type=Path, required=True, help="the checkout to compare with")
    ap.add_argument("--out", type=Path, required=True,
                    help="the BENCH json to add the run to, keyed <base commit>..<change commit> (made if absent)")
    ap.add_argument("--rounds", type=int, default=30)
    args = ap.parse_args()
    trees = {"base": args.base.resolve(), "change": ROOT}
    times, solos = [], []
    for r in range(args.rounds):
        times.append(child("paired", str(trees["base"]), str(ROOT), ("base", "change")[r % 2]))
        solos.append({tree: {f"{n_s}x{n_phi}": child("solo", str(path), n_s, n_phi) for n_s, n_phi in GRIDS}
                      for tree, path in trees.items()})
        print(f"round {r + 1}/{args.rounds}", file=sys.stderr)

    results = {}
    for n_s, n_phi in GRIDS:
        grid = f"{n_s}x{n_phi}"
        by_op = results[str(n_s * n_phi + 1)] = {"grid": f"polar {grid}"}  # the vertex and n_s rings of n_phi
        for name in times[0][grid]:
            seconds = {tree: [t[grid][name][tree] for t in times] for tree in trees}
            row = by_op[name] = {}
            for tree, t in seconds.items():
                median, quartiles = spread(t)
                row[tree] = {"median_s": median, "quartiles_s": quartiles, "rounds_s": t,
                             "peak_bytes": max(solo[tree][grid][name]["peak_bytes"] for solo in solos),
                             "minflt_per_call": statistics.median(solo[tree][grid][name]["minflt"] for solo in solos)}
            row["round_ratio_median"], row["round_ratio_quartiles"] = spread(
                [c / b for b, c in zip(seconds["base"], seconds["change"])])
            row["change_wins"] = sum(c < b for b, c in zip(seconds["base"], seconds["change"]))
            row["verdict"] = verdict(seconds["base"], seconds["change"])
            print(f"{by_op['grid']:15s} {name:28s} base {row['base']['median_s'] * 1e3:8.3f} ms  change "
                  f"{row['change']['median_s'] * 1e3:8.3f} ms  round ratio {row['round_ratio_median']:.3f}  "
                  f"change wins {row['change_wins']}/{args.rounds}  {row['verdict']}")
    commits = {tree: subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"], capture_output=True,
                                    text=True).stdout.strip() for tree, checkout in trees.items()}
    bench = json.loads(args.out.read_text()) if args.out.exists() else {}
    bench[f"{commits['base'][:7]}..{commits['change'][:7]}"] = {
        "what": "seconds of each op per round on each side, the shorter of two calls made A B B A in one child "
                "that imports both packages (A alternates); round_ratio_*: of the per-round ratios change/base; "
                f"verdict: faster or slower in at least {needed(args.rounds)} of {args.rounds} rounds (sign test, "
                f"two-sided p < {P_MAX}); peak_bytes (tracemalloc, max over rounds) and minflt_per_call (median "
                "over rounds) from a solo child per tree and grid",
        "command": f"python3 tools/bench.py --base <checkout of the base commit> --out {args.out.name} "
                   f"--rounds {args.rounds}",
        "commits": commits,
        "env": {"python": platform.python_version(), "numpy": numpy.__version__, "nproc": os.cpu_count(),
                "machine": platform.machine(), "rounds": args.rounds},
        "results": results,
    }
    args.out.write_text(json.dumps(bench, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
