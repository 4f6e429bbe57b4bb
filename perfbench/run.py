"""Stage benchmark for hoedeform: record -> deform -> trace -> analyse.

Run from the root of a checkout:

    python3 perfbench/run.py --workload bent_combiner_16k --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

A closed loop: one client in this process runs one op at a time, with
HOE_THREADS unset so every stage runs sequentially. A run writes the
workload's seeded config, times ``setup_s`` in fresh interpreters, runs one
untimed reference op (outputs checked in full, round trips, and compared
byte for byte with ``run_scene`` or the CLI verbs), then times ops for
``--seconds`` seconds. Every timed op is checked and must write files
byte-identical to the reference op.

Op cost. On a 2-vCPU shared VM (Xeon, 2.1 GHz) host speed drifted by up
to 2x over seconds to minutes; CPU time drifted with wall time, so it was
not waiting. Per-run medians of raw op seconds then spread 0.35 IQR/median
over ten runs, more than any useful bound. So the bounded op metric
is ``op_ref_p50``: the median over ops of op wall time divided by the mean
wall time of a fixed pure-Python reference loop run just before and just
after the op. Host drift slows both; the program cannot touch the
loop. Raw seconds (``op_s_p50``, ``op_s_tail``, ``samples_per_s``) are
printed with every run.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced ops, prints the per-layer metrics from the traced ops,
writes the span dump to ``.perfbench_out/`` and prints a self-time summary.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

from spans import NullRecorder, SpanRecorder, per_op_layer_self, summary

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
TRACE_OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("bent_combiner_16k", "focal_scan_2k", "verb_chain_6k")
# Fresh interpreters per run for setup_s; the median damps the one that
# compiles bytecode in a new checkout.
SETUP_RUNS = 7
# The tail is the op value with at least this many slower ops beyond it.
TAIL_BEYOND = 10
CHILD_TIMEOUT_S = 120

SETUP_SNIPPET = """\
import sys
import hoedeform
from hoedeform.config import load_scene_config
load_scene_config(sys.argv[1])
"""


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "HOE_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    return env


def measure_setup_s(cfg_path: Path) -> float:
    """Median wall time of a fresh interpreter importing hoedeform and loading the config."""
    times = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_SNIPPET, str(cfg_path)], env=child_env(), check=True,
                       stdout=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def import_times() -> tuple:
    """(hoedeform cumulative, summed scipy self) import seconds from ``-X importtime``."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import hoedeform"], env=child_env(),
                          check=True, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    hoe = scipy = 0.0
    for line in proc.stderr.splitlines():
        parts = line.removeprefix("import time:").split("|")
        if len(parts) != 3 or not parts[0].strip().isdigit():
            continue
        name = parts[2].strip()
        if name == "hoedeform":
            hoe = int(parts[1]) / 1e6
        elif name == "scipy" or name.startswith("scipy."):
            scipy += int(parts[0]) / 1e6
    return hoe, scipy


def environment(args, hoe_threads) -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": version("numpy"), "scipy": version("scipy"),
        # the run itself always has HOE_THREADS unset; this is the value it cleared
        "HOE_THREADS_cleared": hoe_threads,
    }


def tail(values: list):
    """Value with at least TAIL_BEYOND values above it, or a note below TAIL_BEYOND + 1 values."""
    if len(values) <= TAIL_BEYOND:
        return f"n/a (needs > {TAIL_BEYOND} ops)"
    return sorted(values)[len(values) - TAIL_BEYOND - 1]


@dataclass(frozen=True)
class _Point:
    x: float
    y: float
    z: float


def reference_loop() -> int:
    """Fixed pure-Python work in the style of the program's scalar code:
    frozen dataclasses, float math, 17-digit formatting and JSON."""
    pts = [_Point(i * 0.5, math.sin(i), math.sqrt(i)) for i in range(30000)]
    total = sum(p.x * p.y + p.z for p in pts)
    text = ",".join(format(p.y, ".17g") for p in pts)
    doc = json.loads(json.dumps([{"x": p.x, "y": p.y} for p in pts[:10000]]))
    return len(text) + len(doc) + int(total)


def timed_reference_loop() -> float:
    gc.collect()
    t0 = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t0


def layer_metrics(wl, spans, facts, times, retained, imports) -> tuple:
    """(per-layer metrics, summary-only stage metrics) from the traced ops."""
    layers, _ = per_op_layer_self(spans)

    def med(name):
        return statistics.median(per.get(name, 0.0) for per in layers.values())

    n = wl.samples
    saved = sum(facts["field_bytes"])
    per_layer = {
        "import.hoedeform_s": (imports[0], "s"),
        "import.scipy_s": (imports[1], "s"),
        "config.load_s": (med("config.load"), "s"),
        "recording.record_s": (med("recording.record"), "s"),
        "recording.us_per_sample": (med("recording.record") / n * 1e6, "us"),
        "recording.retained_bytes_per_sample": (retained, "B"),
        "deformation.forward_s": (med("deformation.forward"), "s"),
        "deformation.forward_us_per_sample": (med("deformation.forward") / n * 1e6, "us"),
        "fieldio.save_s": (med("fieldio.save"), "s"),
        "fieldio.bytes_per_sample": (saved / (len(facts["field_bytes"]) * n), "count"),
        "fieldio.save_mb_per_s": (saved / 1e6 / med("fieldio.save"), "MB/s"),
        "scene.trace_s": (med("scene.trace"), "s"),
        "scene.trace_us_per_sample": (med("scene.trace") / n * 1e6, "us"),
        "diffraction.propagating": (facts["counts"]["propagating"], "count"),
        "diffraction.evanescent": (facts["counts"]["evanescent"], "count"),
        "diffraction.pass_through": (facts["counts"]["pass_through"], "count"),
        "diffraction.propagating_frac": (facts["counts"]["propagating"] / n, "ratio"),
        "scene.write_rays_s": (med("scene.write_rays"), "s"),
        "scene.rays_bytes_per_sample": (facts["rays_bytes"] / n, "count"),
        "scene.write_hits_s": (med("scene.write_hits"), "s"),
        "scene.intersect_s": (med("scene.intersect"), "s"),
        "scene.hits": (facts["hits"], "count"),
        "scene.hit_frac": (facts["hits"] / (facts["rays"] * facts["planes"]), "ratio"),
        "scene.ray_plane_evals": (facts["ray_plane_evals"], "count"),
        "op.self_s": (med("op"), "s"),
        "trace.overhead_s": (statistics.median(times[True]) - statistics.median(times[False]), "s"),
    }
    # Stages that only some workloads run: reported where they run, in the
    # printed summary and the span dump, not as per-layer metrics.
    ran = {s["name"] for s in spans}
    extra = {}
    if "deformation.inverse" in ran:
        extra["deformation.inverse_s"] = (med("deformation.inverse"), "s")
    if "fieldio.load" in ran:
        extra["fieldio.load_s"] = (med("fieldio.load"), "s")
        extra["fieldio.load_mb_per_s"] = (saved / 1e6 / med("fieldio.load"), "MB/s")
    if "scene.read_rays" in ran:
        extra["scene.read_rays_s"] = (med("scene.read_rays"), "s")
    if "scene.focal_scan" in ran:
        extra["scene.focal_scan_s"] = (med("scene.focal_scan"), "s")
        extra["scene.focal_ns_per_ray_plane"] = (med("scene.focal_scan") / facts["ray_plane_evals"] * 1e9, "ns")
        extra["scene.write_spots_s"] = (med("scene.write_spots"), "s")
    return per_layer, extra


def run_workload(args, hoe_threads) -> int:
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    env = environment(args, hoe_threads)
    work = WORK_ROOT / f"{wl.name}-{args.seed}-{os.getpid()}"
    problems = []
    try:
        work.mkdir(parents=True)
        cfg_path = work / "scene.json"
        cfg_path.write_text(json.dumps(wl.config(args.seed), indent=1) + "\n", encoding="utf-8")

        setup_s = None if args.trace else measure_setup_s(cfg_path)

        ref_out = work / "reference"
        ref_out.mkdir()
        ref = wl.op(cfg_path, ref_out, NullRecorder())
        problems += wl.check(ref, ref_out, reference=True)
        fidelity_out = work / "fidelity"
        fidelity_out.mkdir()
        problems += wl.fidelity(cfg_path, ref_out, fidelity_out)
        facts = workloads.output_facts(ref, ref_out)
        ref_digests = workloads.output_digests(ref_out)
        del ref

        retained = imports = None
        if args.trace:
            retained = workloads.retained_record_bytes(cfg_path)
            imports = import_times()

        out = work / "op"
        out.mkdir()
        recorder = SpanRecorder()
        null = NullRecorder()
        ops = []  # (wall seconds or None if the op raised, traced)
        ref_s = [timed_reference_loop()]  # ref_s[i], ref_s[i + 1] bracket op i
        failed = 0
        deadline = time.perf_counter() + args.seconds
        while True:
            traced = bool(args.trace) and len(ops) % 2 == 1
            rec = recorder if traced else null
            recorder.op_id = len(ops)
            gc.collect()
            t0 = time.perf_counter()
            dt = None
            try:
                with rec.span("op"):
                    res = wl.op(cfg_path, out, rec)
                dt = time.perf_counter() - t0
                fails = wl.check(res, out, reference=False)
                if workloads.output_digests(out) != ref_digests:
                    fails.append("op outputs differ from the reference op's")
                del res
            except Exception:  # an op that raises is a failed op; keep measuring
                fails = [traceback.format_exc()]
            ops.append((dt, traced))
            ref_s.append(timed_reference_loop())
            if fails:
                failed += 1
                print(f"op {len(ops) - 1} failed: {fails[:3]}", file=sys.stderr)
            if time.perf_counter() >= deadline and (not args.trace or len(ops) >= 2):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for p in problems:
        print(f"reference op: {p}", file=sys.stderr)
    attempted = len(ops)
    print(json.dumps({"env": env}, sort_keys=True))
    if args.trace:
        times = {flag: [dt for dt, traced in ops if dt is not None and traced is flag] for flag in (False, True)}
        per_layer, extra = layer_metrics(wl, recorder.spans, facts, times, retained, imports)
        summ = summary(recorder.spans)
        TRACE_OUT.mkdir(exist_ok=True)
        dump = TRACE_OUT / f"trace-{wl.name}-seed{args.seed}.json"
        dump.write_text(json.dumps({"env": env, "summary": summ,
                                    "metrics": {k: v[0] for k, v in {**per_layer, **extra}.items()},
                                    "spans": recorder.spans}, indent=1) + "\n", encoding="utf-8")
        print(f"span dump: {dump.relative_to(ROOT)} ({len(recorder.spans)} spans, {summ['ops']} traced ops)")
        print(f"self time per layer, median over traced ops of {wl.name} "
              f"(op span {summ['median_op_s']:.4f} s, closure error {summ['max_closure_error_s']:.1e} s):")
        for name, s in sorted(summ["median_self_s"].items(), key=lambda kv: -kv[1]):
            print(f"  {name:<22} {s:10.5f} s  {100 * s / summ['median_op_s']:5.1f} %")
        metrics = per_layer
        shown = {**per_layer, **extra}
    else:
        wall = [dt for dt, _ in ops if dt is not None]
        cost = [dt / ((ref_s[i] + ref_s[i + 1]) / 2) for i, (dt, _) in enumerate(ops) if dt is not None]
        ref_p50 = statistics.median(cost)
        metrics = {
            "setup_s": (setup_s, "s"),
            "op_ref_p50": (ref_p50, "ref"),
            "samples_per_ref": (wl.samples / ref_p50, "1/ref"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB"),
        }
        p50 = statistics.median(wall)
        shown = {**metrics,
                 "op_ref_tail": (tail(cost), "ref"),
                 "op_s_p50": (p50, "s"),
                 "op_s_tail": (tail(wall), "s"),
                 "samples_per_s": (wl.samples / p50, "1/s"),
                 "reference_loop_s_p50": (statistics.median(ref_s), "s"),
                 "ops_failed_frac": (failed / attempted, "ratio")}
    print(f"{wl.name}: {wl.samples} samples per op, {attempted} ops timed, {failed} failed")
    for name, (value, unit) in shown.items():
        print(f"  {name} = {value} {unit}")
    correct = not problems and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


def run_all(args) -> int:
    """Each workload in its own child process, so none shares a high-water mark."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (SRC / "hoedeform" / "__init__.py").is_file():
        print(f"error: hoedeform sources not found under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    hoe_threads = os.environ.pop("HOE_THREADS", None)
    sys.path.insert(0, str(SRC))
    return run_workload(args, hoe_threads)


if __name__ == "__main__":
    sys.exit(main())
