"""Benchmark workloads: seeded scene configs, the timed op, and its checks.

Each op calls the public functions of every layer in the order
``pipeline.run_scene`` (bent_combiner_16k, focal_scan_2k) or the CLI step
verbs ``invert``/``deform``/``trace``/``scan`` (verb_chain_6k) call them,
wrapping each call in a span. The seed draws scene geometry only, never the
grid size; the program sees nothing but the generated config file.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import random
import tracemalloc
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from hoedeform import cli
from hoedeform.config import load_scene_config
from hoedeform.deformation import induce_forward, induce_inverse
from hoedeform.diffraction import DiffractionStatus
from hoedeform.fieldio import load_field, save_field
from hoedeform.pipeline import (DEFORMED_FILE, FIELD_FILE, HITS_FILE, PLANAR_FILE, RAYS_FILE, SCAN_FILE,
                                SPOTS_FILE, run_scene)
from hoedeform.recording import record
from hoedeform.scene import (PARALLEL_TOL, focal_scan, intersect_plane, read_rays_csv, trace_field,
                             write_hits_csv, write_rays_csv, write_spots_csv)
from hoedeform.waves import local_wavevector

MODE = "energy"
DOMAIN_MM = 10.0
FOCAL_PLANES = 801
FOCAL_RANGE_MM = (30.0, 90.0)
# Detector planes as fractions of the converging target's z; all lie
# forward of every sample, so every ray hits every plane.
DETECTOR_FRACTIONS = (0.55, 0.625, 0.7, 0.775, 0.85)


# ---------------------------------------------------------------------------
# seeded scene configs
# ---------------------------------------------------------------------------

def _geometry(rng: random.Random) -> dict:
    """Diverging->converging combiner geometry.

    Over the corners of these ranges the bent element focuses between 49 and
    72 mm, inside the 30-90 mm focal scan; every op's closed-form focus check
    would flag a focus outside it.
    """
    def r3(lo, hi):
        return round(rng.uniform(lo, hi), 3)

    return {
        "source": [r3(-34.0, -26.0), r3(-3.0, 3.0), r3(-44.0, -36.0)],
        "target": [r3(-3.0, 3.0), r3(-3.0, 3.0), r3(72.0, 88.0)],
        "radius": r3(45.0, 60.0),
        "center_z": r3(450.0, 550.0),
    }


def _config(geo: dict, grid: tuple, carrier_curved: bool, projection, focal: bool) -> dict:
    cap = {"kind": "sphere_cap", "radius_mm": geo["radius"], "domain_radius_mm": DOMAIN_MM}
    source = {"kind": "spherical_diverging", "origin_mm": geo["source"]}
    analysis = {"detector_z_mm": [round(geo["target"][2] * f, 3) for f in DETECTOR_FRACTIONS]}
    if focal:
        analysis["focal_scan"] = {"z_min": FOCAL_RANGE_MM[0], "z_max": FOCAL_RANGE_MM[1], "n": FOCAL_PLANES}
    return {
        "wavelength": {"lambda_nm": 500.0},
        "recording": {
            "w1": source,
            "w2": {"kind": "spherical_converging", "target_mm": geo["target"]},
            "carrier": cap if carrier_curved else {"kind": "planar", "domain_radius_mm": DOMAIN_MM},
            "grid": {"kind": "polar", "n_s": grid[0], "n_phi": grid[1]},
        },
        "deformation": {"target_profile": cap, "projection": projection},
        "probe": source,
        "analysis": analysis,
    }


# ---------------------------------------------------------------------------
# output checks shared by the ops
# ---------------------------------------------------------------------------

def _rel_close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _same_field(a, b) -> bool:
    return (a.samples == b.samples and a.grid == b.grid and a.wavelength_nm == b.wavelength_nm
            and a.carrier.descriptor() == b.carrier.descriptor())


def _check_transport(src, dst, what: str, fails: list) -> None:
    """Deformation keeps every sample's frame coordinates and |kg|."""
    if len(src) != len(dst):
        fails.append(f"{what}: {len(dst)} samples, expected {len(src)}")
        return
    for i, (a, b) in enumerate(zip(src.samples, dst.samples)):
        if a.coords != b.coords or not _rel_close(a.kg_world().norm(), b.kg_world().norm(), 1e-12):
            fails.append(f"{what}: sample {i} frame coordinates or |kg| changed")
            return


def _check_trace(field, records, probe, fails: list) -> None:
    counts = {s: 0 for s in DiffractionStatus}
    for rec in records:
        counts[rec.status] += 1
    if sum(counts.values()) != len(field):
        fails.append(f"status counts {counts} do not sum to {len(field)} samples")
    for rec in records:
        if rec.status is DiffractionStatus.PROPAGATING:
            kp = local_wavevector(probe, rec.position).norm()
            if not _rel_close(rec.result.kd.norm(), kp, 1e-12):
                fails.append(f"sample {rec.index}: |kd| != |kp| in energy mode")
                return


def _check_rays_roundtrip(records, path: Path, fails: list) -> None:
    rays = [rec.ray for rec in records if rec.ray is not None]
    if read_rays_csv(path) != rays:
        fails.append(f"{path.name}: read_rays_csv does not reproduce the written rays")


def output_digests(out: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


def _compare_dirs(ref: Path, other: Path, label: str) -> list:
    a, b = sorted(p.name for p in ref.iterdir()), sorted(p.name for p in other.iterdir())
    if a != b:
        return [f"{label}: files {b} differ from the benchmark's {a}"]
    return [f"{label}: {name} is not byte-identical" for name in a
            if (ref / name).read_bytes() != (other / name).read_bytes()]


def _focal_closed_form(rays) -> dict:
    """Exact RMS-minimum planes from ray moments: x_i(z) = a_i + b_i z, so
    sigma^2(z) is quadratic in z with its minimum at -cov(a, b)/var(b)."""
    arr = np.array([(r.origin.x, r.origin.y, r.origin.z, r.direction.x, r.direction.y, r.direction.z)
                    for r in rays if r.direction.z > PARALLEL_TOL])
    o, d = arr[:, :3], arr[:, 3:]
    b = d[:, :2] / d[:, 2:3]
    a = o[:, :2] - o[:, 2:3] * b
    a -= a.mean(axis=0)
    b -= b.mean(axis=0)
    cov, var = (a * b).mean(axis=0), (b * b).mean(axis=0)
    return {"x": -cov[0] / var[0], "y": -cov[1] / var[1], "total": -cov.sum() / var.sum()}


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------

def pipeline_op(cfg_path: Path, out: Path, rec) -> dict:
    """The stages of ``run_scene``, one span per public call."""
    with rec.span("config.load"):
        cfg = load_scene_config(cfg_path)
    with rec.span("recording.record"):
        field = record(cfg.recording.w1, cfg.recording.w2, cfg.recording.carrier, cfg.recording.grid)
    with rec.span("fieldio.save"):
        save_field(field, out / FIELD_FILE)
    with rec.span("deformation.forward"):
        deformed = induce_forward(field, cfg.deformation.target_profile, cfg.deformation.projection)
    with rec.span("fieldio.save"):
        save_field(deformed, out / DEFORMED_FILE)
    with rec.span("scene.trace"):
        records = trace_field(deformed, cfg.probe, mode=MODE)
    with rec.span("scene.write_rays"):
        write_rays_csv(records, out / RAYS_FILE)
    rays = [r.ray for r in records if r.ray is not None]
    with rec.span("scene.intersect"):
        planes = [intersect_plane(rays, z) for z in cfg.analysis.detector_z_mm]
    with rec.span("scene.write_hits"):
        write_hits_csv(planes, out / HITS_FILE)
    scan = None
    spec = cfg.analysis.focal_scan
    if spec is not None:
        with rec.span("scene.focal_scan"):
            scan = focal_scan(rays, (spec.z_min, spec.z_max), spec.n_planes)
        with rec.span("scene.write_spots"):
            write_spots_csv(scan.reports, out / SPOTS_FILE)
        doc = {
            "z_min_mm": spec.z_min, "z_max_mm": spec.z_max, "n_planes": spec.n_planes,
            "plane_spacing_mm": scan.plane_spacing,
            "z_min_rms_x_mm": scan.z_min_rms_x, "z_min_rms_y_mm": scan.z_min_rms_y,
            "z_min_rms_total_mm": scan.z_min_rms_total, "astigmatism_mm": scan.astigmatism_mm,
            "bracketed_x": scan.bracketed_x, "bracketed_y": scan.bracketed_y,
            "bracketed_total": scan.bracketed_total,
            "n_rays_used": scan.n_rays_used, "n_rays_excluded": scan.n_rays_excluded,
        }
        with open(out / SCAN_FILE, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    return {"cfg": cfg, "field": field, "deformed": deformed, "records": records, "rays": rays,
            "planes": planes, "scan": scan}


def check_pipeline(res: dict, out: Path, reference: bool) -> list:
    fails = []
    _check_transport(res["field"], res["deformed"], "induce_forward", fails)
    _check_trace(res["deformed"], res["records"], res["cfg"].probe, fails)
    if reference:
        for name, f in ((FIELD_FILE, res["field"]), (DEFORMED_FILE, res["deformed"])):
            if not _same_field(load_field(out / name), f):
                fails.append(f"{name}: load_field does not reproduce the saved field")
        _check_rays_roundtrip(res["records"], out / RAYS_FILE, fails)
    scan = res["scan"]
    if scan is not None:
        z_star = _focal_closed_form(res["rays"])
        scanned = {"x": scan.z_min_rms_x, "y": scan.z_min_rms_y, "total": scan.z_min_rms_total}
        for axis, z in z_star.items():
            if not abs(scanned[axis] - z) <= scan.plane_spacing:
                fails.append(f"focal scan {axis}: scanned minimum {scanned[axis]} vs closed form {z}")
    return fails


def verb_chain_op(cfg_path: Path, out: Path, rec) -> dict:
    """The file chain of ``invert``, ``deform --field``, ``trace`` and ``scan``."""
    with rec.span("config.load"):
        cfg = load_scene_config(cfg_path)
    projection = cfg.deformation.projection
    with rec.span("recording.record"):
        target = record(cfg.recording.w1, cfg.recording.w2, cfg.recording.carrier, cfg.recording.grid)
    with rec.span("deformation.inverse"):
        planar = induce_inverse(target, projection)
    with rec.span("fieldio.save"):
        save_field(planar, out / PLANAR_FILE)
    with rec.span("fieldio.load"):
        planar_loaded = load_field(out / PLANAR_FILE)
    with rec.span("deformation.forward"):
        deformed = induce_forward(planar_loaded, cfg.deformation.target_profile, projection)
    with rec.span("fieldio.save"):
        save_field(deformed, out / DEFORMED_FILE)
    with rec.span("fieldio.load"):
        deformed_loaded = load_field(out / DEFORMED_FILE)
    with rec.span("scene.trace"):
        records = trace_field(deformed_loaded, cfg.probe, mode=MODE)
    with rec.span("scene.write_rays"):
        write_rays_csv(records, out / RAYS_FILE)
    with rec.span("scene.read_rays"):
        rays = read_rays_csv(out / RAYS_FILE)
    with rec.span("scene.intersect"):
        planes = [intersect_plane(rays, z) for z in cfg.analysis.detector_z_mm]
    with rec.span("scene.write_hits"):
        write_hits_csv(planes, out / HITS_FILE)
    return {"cfg": cfg, "target": target, "planar": planar, "planar_loaded": planar_loaded,
            "deformed": deformed, "deformed_loaded": deformed_loaded, "records": records,
            "rays": rays, "planes": planes, "scan": None}


def check_verb_chain(res: dict, out: Path, reference: bool) -> list:
    fails = []
    target, planar, deformed = res["target"], res["planar"], res["deformed"]
    _check_transport(target, planar, "induce_inverse", fails)
    _check_transport(planar, deformed, "induce_forward", fails)
    if not _same_field(res["planar_loaded"], planar):
        fails.append(f"{PLANAR_FILE}: load_field does not reproduce the saved field")
    if not _same_field(res["deformed_loaded"], deformed):
        fails.append(f"{DEFORMED_FILE}: load_field does not reproduce the saved field")
    for i, (t, d) in enumerate(zip(target.samples, deformed.samples)):
        if (t.position - d.position).norm() > 1e-9 or t.coords != d.coords:
            fails.append(f"sample {i}: induce_forward(induce_inverse(target)) misses the target")
            break
    _check_trace(deformed, res["records"], res["cfg"].probe, fails)
    if [r.ray for r in res["records"] if r.ray is not None] != res["rays"]:
        fails.append(f"{RAYS_FILE}: read_rays_csv does not reproduce the written rays")
    return fails


def output_facts(res: dict, out: Path) -> dict:
    """Counts and file sizes of one op; every timed op writes byte-identical files."""
    counts = {s.value: 0 for s in DiffractionStatus}
    for r in res["records"]:
        counts[r.status.value] += 1
    field_files = [out / n for n in (FIELD_FILE, PLANAR_FILE, DEFORMED_FILE) if (out / n).exists()]
    scan = res["scan"]
    return {
        "counts": counts,
        "field_bytes": [p.stat().st_size for p in field_files],
        "rays_bytes": (out / RAYS_FILE).stat().st_size,
        "rays": len(res["rays"]),
        "planes": len(res["planes"]),
        "hits": sum(len(p.hits) for p in res["planes"]),
        "ray_plane_evals": scan.n_rays_used * len(scan.reports) if scan is not None else 0,
    }


def retained_record_bytes(cfg_path: Path) -> float:
    """Bytes a recorded field keeps alive, per sample (tracemalloc)."""
    cfg = load_scene_config(cfg_path)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        field = record(cfg.recording.w1, cfg.recording.w2, cfg.recording.carrier, cfg.recording.grid)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return retained / len(field)


# ---------------------------------------------------------------------------
# fidelity: the mirrored op writes what users' entry points write
# ---------------------------------------------------------------------------

def run_scene_fidelity(cfg_path: Path, ref_out: Path, scratch: Path) -> list:
    run_scene(cfg_path, scratch, mode=MODE)
    return _compare_dirs(ref_out, scratch, "run_scene")


def cli_fidelity(cfg_path: Path, ref_out: Path, scratch: Path) -> list:
    common = ["--config", str(cfg_path), "--out", str(scratch)]
    steps = (["invert", *common], ["deform", *common, "--field", str(scratch / PLANAR_FILE)],
             ["trace", *common, "--mode", MODE], ["scan", *common])
    for argv in steps:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            return [f"cli {argv[0]} exited with {code}"]
    return _compare_dirs(ref_out, scratch, "cli verbs")


@dataclass(frozen=True)
class Workload:
    name: str
    grid: tuple  # (n_s, n_phi) of the polar recording grid
    curved_recording: bool
    central_projection: bool
    focal: bool
    op: Callable
    check: Callable
    fidelity: Callable

    @property
    def samples(self) -> int:
        return 1 + self.grid[0] * self.grid[1]

    def config(self, seed: int) -> dict:
        geo = _geometry(random.Random(seed))
        projection = {"center_z_mm": geo["center_z"]} if self.central_projection else "orthogonal"
        return _config(geo, self.grid, self.curved_recording, projection, self.focal)


WORKLOADS = {w.name: w for w in (
    Workload("bent_combiner_16k", (100, 160), False, True, False, pipeline_op, check_pipeline,
             run_scene_fidelity),
    Workload("focal_scan_2k", (40, 64), False, False, True, pipeline_op, check_pipeline,
             run_scene_fidelity),
    Workload("verb_chain_6k", (60, 100), True, True, False, verb_chain_op, check_verb_chain,
             cli_fidelity),
)}
