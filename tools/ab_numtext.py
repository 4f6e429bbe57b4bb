"""Time this checkout's number kernel and row assembler against another checkout's in one process, alternating, and add the rounds to a BENCH json.

Run from the root of a checkout, with a second checkout to compare with:

    python3 tools/ab_numtext.py --base ../parent --out BENCH_21.json --rounds 30

Only ``numtext`` and ``fieldio.write_rows`` differ between the two sides:
the package is this checkout's, and the base checkout's
``src/hoedeform/numtext.py`` and ``src/hoedeform/fieldio.py`` are loaded
beside it as submodules of this package, so that their relative imports
resolve here. A side is switched in by pointing the names that ``fieldio``
and ``scene`` import from ``numtext``, and ``write_rows``, at its
functions. To A/B one step of the kernel or the assembler, run the tool
against a copy of this checkout with the step taken out. The scene is
``combiner_deformed.json`` on the polar grids 40x64 and 100x160 (2 561 and
16 001 samples), recorded, deformed, traced and intersected with its
detector planes once a grid. Both sides must write the same bytes and read
the same bits. Each round then calls every op of every grid twice on each
side, in the order A B B A, A the side that goes first, alternating from
round to round, so that a drift of the host's speed within the round weighs
on both sides alike; a side's time of the round is the shorter of its two
calls. The ops are ``fieldio.save`` (the field and the deformed field),
``scene.write_rays``, ``scene.write_hits``, ``fieldio.load`` (both field
files) and ``scene.read_rays``. A write goes to a new path, removed after
the call, so that no call frees the pages of a file an earlier call wrote.
The file gets, under ``one_process_ab``, for each grid and op, the seconds
per round of both sides, their medians and quartiles, the median and
quartiles of the per-round ratios change/base, and the rounds the change
wins. Read a verdict off the per-round ratios: on ops whose code is the same
on both sides, over 30-round runs on a 2-vCPU VM, their median stayed within
0.988-1.011 while the ratio of the two sides' medians strayed to 0.968-1.039.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from hoedeform import fieldio, numtext, scene  # noqa: E402
from hoedeform.config import load_scene_config  # noqa: E402
from hoedeform.deformation import induce_forward  # noqa: E402
from hoedeform.recording import record  # noqa: E402

GRIDS = ((40, 64), (100, 160))
# The names each module imports from numtext, and the row assembler
SWITCHED = {fieldio: ("float_tokens", "read_floats", "repr_text", "write_rows"),
            scene: ("float_tokens", "g17_text", "int_text", "read_floats", "write_rows")}


def side_of(kernel, assembler) -> dict:
    """The functions of one side: the numtext names of ``kernel`` and ``write_rows`` of ``assembler``."""
    names = {name for names in SWITCHED.values() for name in names}
    return {name: getattr(assembler if name == "write_rows" else kernel, name) for name in names}


def use(side: dict) -> None:
    for module, names in SWITCHED.items():
        for name in names:
            setattr(module, name, side[name])


def base_module(checkout: Path, name: str):
    """The checkout's ``src/hoedeform/<name>.py``, loaded as the submodule ``hoedeform.<name>_base``."""
    spec = importlib.util.spec_from_file_location(f"hoedeform.{name}_base",
                                                  checkout / "src" / "hoedeform" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def grid_ops(n_s: int, n_phi: int, out: Path, sides: dict) -> dict:
    """The ops of one grid, after checking that both sides write the same bytes and read the same bits."""
    doc = json.loads((ROOT / "src/hoedeform/configs/combiner_deformed.json").read_text())
    doc["recording"]["grid"].update(n_s=n_s, n_phi=n_phi)
    (out / "scene.json").write_text(json.dumps(doc))
    cfg = load_scene_config(out / "scene.json")
    field = record(cfg.recording.w1, cfg.recording.w2, cfg.recording.carrier, cfg.recording.grid)
    deformed = induce_forward(field, cfg.deformation.target_profile, cfg.deformation.projection)
    trace = scene.trace_field(deformed, cfg.probe)
    planes = [scene.intersect_plane(trace.rays(), z) for z in cfg.analysis.detector_z_mm]
    tag = f"{n_s}x{n_phi}"
    files = {name: out / f"{name}_{tag}.{ext}" for name, ext in (("field", "json"), ("deformed", "json"),
                                                                 ("rays", "csv"), ("hits", "csv"))}
    written = []
    for side in sides.values():
        use(side)
        fieldio.save_field(field, files["field"])
        fieldio.save_field(deformed, files["deformed"])
        scene.write_rays_csv(trace, files["rays"])
        scene.write_hits_csv(planes, files["hits"])
        written.append([path.read_bytes() for path in files.values()])
    assert written[0] == written[1], f"the two sides write different bytes at {tag}"
    read = []
    for side in sides.values():
        use(side)
        fields = [fieldio.load_field(files[name]) for name in ("field", "deformed")]
        rays = scene.read_rays_csv(files["rays"])
        read.append([a.tobytes() for f in fields for a in (f.s, f.phi, f.pos, f.g)]
                    + [a.tobytes() for a in (rays.origins, rays.directions, rays.weights)])
    assert read[0] == read[1], f"the two sides read different bits at {tag}"
    serial = iter(range(10 ** 9))

    def fresh(name: str) -> Path:
        return out / f"{next(serial)}_{name}"

    return {
        "fieldio.save": lambda: (fieldio.save_field(field, fresh("field.json")),
                                 fieldio.save_field(deformed, fresh("deformed.json"))),
        "scene.write_rays": lambda: scene.write_rays_csv(trace, fresh("rays.csv")),
        "scene.write_hits": lambda: scene.write_hits_csv(planes, fresh("hits.csv")),
        "fieldio.load": lambda: (fieldio.load_field(files["field"]), fieldio.load_field(files["deformed"])),
        "scene.read_rays": lambda: scene.read_rays_csv(files["rays"]),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", type=Path, required=True, help="the checkout to compare with")
    ap.add_argument("--out", type=Path, required=True, help="the BENCH json to add the rounds to (made if absent)")
    ap.add_argument("--rounds", type=int, default=30)
    args = ap.parse_args()
    base = args.base.resolve()
    sides = {"base": side_of(base_module(base, "numtext"), base_module(base, "fieldio")),
             "change": side_of(numtext, fieldio)}
    out = Path(tempfile.mkdtemp())
    ops = {f"{n_s}x{n_phi}": grid_ops(n_s, n_phi, out, sides) for n_s, n_phi in GRIDS}
    for side in sides.values():  # a call of each op on each side before the rounds
        use(side)
        for grid in ops.values():
            for op in grid.values():
                op()
    times = {grid: {name: {side: [] for side in sides} for name in by_name} for grid, by_name in ops.items()}
    for r in range(args.rounds):
        first, second = list(sides) if r % 2 == 0 else list(sides)[::-1]
        for grid, by_name in ops.items():
            for name, op in by_name.items():
                calls = {side: [] for side in sides}
                for side in (first, second, second, first):
                    use(sides[side])
                    gc.collect()
                    t0 = time.perf_counter()
                    op()
                    calls[side].append(time.perf_counter() - t0)
                    for path in out.glob("[0-9]*_*"):
                        path.unlink()
                for side, t in calls.items():
                    times[grid][name][side].append(min(t))
    use(sides["change"])
    results = {}
    for grid, by_name in times.items():
        for name, by_side in by_name.items():
            row = results.setdefault(grid, {})[name] = {
                side: {"median_s": statistics.median(t), "quartiles_s": statistics.quantiles(t, n=4)[::2],
                       "rounds_s": t} for side, t in by_side.items()}
            row["change_over_base"] = row["change"]["median_s"] / row["base"]["median_s"]
            ratios = [c / b for b, c in zip(by_side["base"], by_side["change"])]
            row["round_ratio_median"] = statistics.median(ratios)
            row["round_ratio_quartiles"] = statistics.quantiles(ratios, n=4)[::2]
            row["change_wins"] = sum(c < b for b, c in zip(by_side["base"], by_side["change"]))
    bench = json.loads(args.out.read_text()) if args.out.exists() else {}
    bench["one_process_ab"] = {
        "what": "seconds of each op per round on each side, the shorter of two calls made in the order A B B A, "
                "in one process that switches only the number kernel (numtext) and the row assembler "
                "(fieldio.write_rows) between the base checkout's and this one's; combiner_deformed.json at "
                "2 561 (40x64) and 16 001 (100x160) samples; the side that goes first (A) alternates; "
                "round_ratio_*: of the per-round ratios change/base; change_wins: rounds the change is faster",
        "command": f"python3 tools/ab_numtext.py --base <checkout of the base commit> --out {args.out.name} "
                   f"--rounds {args.rounds}",
        "numpy": np.__version__,
        "rounds": args.rounds,
        "results": results,
    }
    args.out.write_text(json.dumps(bench, indent=1) + "\n", encoding="utf-8")
    for grid, by_name in results.items():
        for name, row in by_name.items():
            print(f"{grid:8s} {name:18s} base {row['base']['median_s'] * 1e3:7.2f} ms  change "
                  f"{row['change']['median_s'] * 1e3:7.2f} ms  round ratio {row['round_ratio_median']:.3f}  "
                  f"change wins {row['change_wins']}/{args.rounds}")
    for path in out.iterdir():
        path.unlink()
    out.rmdir()
    return 0


if __name__ == "__main__":
    sys.exit(main())
