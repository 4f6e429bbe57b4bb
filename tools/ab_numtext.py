"""Time this checkout's number kernel against another checkout's in one process, alternating, and add the rounds to a BENCH json.

Run from the root of a checkout, with a second checkout to compare with:

    python3 tools/ab_numtext.py --base ../parent --out BENCH_21.json --rounds 30

Only ``numtext`` differs between the two sides: the package is this
checkout's, and the base checkout's ``src/hoedeform/numtext.py``, which
imports only numpy, is loaded beside it as a module of its own. A side is
switched in by pointing the names that ``fieldio`` and ``scene`` import from
``numtext`` at its functions. The scene is ``combiner_deformed.json`` on the
polar grid 100x160 (16 001 samples), recorded, deformed and traced once.
Both sides must write the same bytes and read the same bits. Each round
then calls every op twice on each side, in the order A B B A, A the side
that goes first, alternating from round to round, so that a drift of the
host's speed within the round weighs on both sides alike; a side's time
of the round is the shorter of its two calls. The ops are
``fieldio.save`` (the field and the deformed field), ``scene.write_rays``,
``fieldio.load`` (both field files) and ``scene.read_rays``. A write goes
to a new path, removed after the call, so that no call frees the pages of
a file an earlier call wrote. The file gets, under ``one_process_ab``,
each op's seconds per round for both sides, their medians and quartiles,
and the rounds the change wins.
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

# The names each module imports from numtext
SWITCHED = {fieldio: ("float_tokens", "read_floats", "repr_text"),
            scene: ("float_tokens", "g17_text", "int_text", "read_floats")}


def use(kernel) -> None:
    for module, names in SWITCHED.items():
        for name in names:
            setattr(module, name, getattr(kernel, name))


def base_kernel(checkout: Path):
    spec = importlib.util.spec_from_file_location("numtext_base", checkout / "src" / "hoedeform" / "numtext.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", type=Path, required=True, help="the checkout to compare with")
    ap.add_argument("--out", type=Path, required=True, help="the BENCH json to add the rounds to (made if absent)")
    ap.add_argument("--rounds", type=int, default=30)
    args = ap.parse_args()
    sides = {"base": base_kernel(args.base.resolve()), "change": numtext}
    out = Path(tempfile.mkdtemp())
    doc = json.loads((ROOT / "src/hoedeform/configs/combiner_deformed.json").read_text())
    doc["recording"]["grid"].update(n_s=100, n_phi=160)
    (out / "scene.json").write_text(json.dumps(doc))
    cfg = load_scene_config(out / "scene.json")
    field = record(cfg.recording.w1, cfg.recording.w2, cfg.recording.carrier, cfg.recording.grid)
    deformed = induce_forward(field, cfg.deformation.target_profile, cfg.deformation.projection)
    trace = scene.trace_field(deformed, cfg.probe)
    written = {}
    for side, kernel in sides.items():
        use(kernel)
        fieldio.save_field(field, out / f"field_{side}.json")
        fieldio.save_field(deformed, out / f"deformed_{side}.json")
        scene.write_rays_csv(trace, out / f"rays_{side}.csv")
        written[side] = [(out / f"{name}_{side}.{ext}").read_bytes()
                         for name, ext in (("field", "json"), ("deformed", "json"), ("rays", "csv"))]
    assert written["base"] == written["change"], "the two kernels write different bytes"
    read = {}
    for side, kernel in sides.items():
        use(kernel)
        fields = [fieldio.load_field(out / f"{name}_change.json") for name in ("field", "deformed")]
        rays = scene.read_rays_csv(out / "rays_change.csv")
        read[side] = [a.tobytes() for f in fields for a in (f.s, f.phi, f.pos, f.g)] + \
            [a.tobytes() for a in (rays.origins, rays.directions, rays.weights)]
    assert read["base"] == read["change"], "the two kernels read different bits"
    serial = iter(range(10 ** 9))

    def fresh(name: str) -> Path:
        return out / f"{next(serial)}_{name}"

    ops = {
        "fieldio.save": lambda: (fieldio.save_field(field, fresh("field.json")),
                                 fieldio.save_field(deformed, fresh("deformed.json"))),
        "scene.write_rays": lambda: scene.write_rays_csv(trace, fresh("rays.csv")),
        "fieldio.load": lambda: (fieldio.load_field(out / "field_change.json"),
                                 fieldio.load_field(out / "deformed_change.json")),
        "scene.read_rays": lambda: scene.read_rays_csv(out / "rays_change.csv"),
    }
    for kernel in sides.values():  # a call of each op on each side before the rounds
        use(kernel)
        for op in ops.values():
            op()
    times = {name: {side: [] for side in sides} for name in ops}
    for r in range(args.rounds):
        first, second = list(sides) if r % 2 == 0 else list(sides)[::-1]
        for name, op in ops.items():
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
                times[name][side].append(min(t))
    use(numtext)
    results = {}
    for name, by_side in times.items():
        row = results[name] = {side: {"median_s": statistics.median(t),
                                      "quartiles_s": statistics.quantiles(t, n=4)[::2],
                                      "rounds_s": t} for side, t in by_side.items()}
        row["change_over_base"] = row["change"]["median_s"] / row["base"]["median_s"]
        row["change_wins"] = sum(c < b for b, c in zip(by_side["base"], by_side["change"]))
    bench = json.loads(args.out.read_text()) if args.out.exists() else {}
    bench["one_process_ab"] = {
        "what": "seconds of each op per round on each side, the shorter of two calls made in the order A B B A, "
                "in one process that switches only the number kernel (numtext) between the base checkout's and "
                "this one's; combiner_deformed.json at 16 001 samples; the side that goes first (A) alternates; "
                "change_wins: rounds the change is faster",
        "command": f"python3 tools/ab_numtext.py --base <checkout of the base commit> --out {args.out.name} "
                   f"--rounds {args.rounds}",
        "numpy": np.__version__,
        "rounds": args.rounds,
        "results": results,
    }
    args.out.write_text(json.dumps(bench, indent=1) + "\n", encoding="utf-8")
    for name, row in results.items():
        print(f"{name:18s} base {row['base']['median_s'] * 1e3:7.2f} ms  change {row['change']['median_s'] * 1e3:7.2f} "
              f"ms  ratio {row['change_over_base']:.3f}  change wins {row['change_wins']}/{args.rounds}")
    for path in out.iterdir():
        path.unlink()
    out.rmdir()
    return 0


if __name__ == "__main__":
    sys.exit(main())
