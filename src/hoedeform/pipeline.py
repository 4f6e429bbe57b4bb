"""End-to-end scene execution: record -> [deform] -> trace -> analyze.

Each stage is one function that computes its result, writes it into the
existing output directory and returns it. ``run_scene`` chains the stages;
the CLI step verbs call the same functions on inputs loaded from files.

All stages are deterministic: a given config produces byte-identical output
files on every run (fixed sample ordering, no randomized iteration, fixed
decimal formatting: the shortest round-trip ``repr`` of every float in the
field files, 17 significant digits in the CSVs, both written by the number
kernel of ``numtext`` through ``fieldio.write_rows``).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List, Optional, Tuple

from .config import AnalysisSpec, DeformationSpec, RecordingSpec, SceneConfig, load_scene_config
from .deformation import induce_forward, rescale
from .errors import ConfigError
from .fieldio import save_field
from .recording import GratingVectorField, record
from .scene import (RayBundle, Trace, focal_scan, intersect_plane, trace_field, write_hits_csv, write_rays_csv,
                    write_spots_csv)
from .waves import Wave

FIELD_FILE = "field.json"
DEFORMED_FILE = "field_deformed.json"
PLANAR_FILE = "field_planar.json"
RAYS_FILE = "rays.csv"
HITS_FILE = "hits.csv"
SPOTS_FILE = "spots.csv"
SCAN_FILE = "scan.json"


def _write_json(doc: dict, path: Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def record_stage(spec: RecordingSpec, out: Path) -> GratingVectorField:
    """Record the field of ``spec`` and write OUT/field.json."""
    field = record(spec.w1, spec.w2, spec.carrier, spec.grid)
    save_field(field, out / FIELD_FILE)
    return field


def deform_stage(field: GratingVectorField, spec: DeformationSpec, out: Path) -> GratingVectorField:
    """Push ``field`` onto the target profile, rescale it if asked, and write OUT/field_deformed.json.

    Only a field on a planar carrier can be bent; any other is a ConfigError.
    """
    if field.carrier.kind != "planar":
        raise ConfigError(f"deformation: the field lies on a {field.carrier.kind} carrier, but only a planar "
                          "field can be bent; use invert to pull a curved field back to the plane")
    deformed = induce_forward(field, spec.target_profile, spec.projection)
    if spec.rescale is not None:
        deformed = rescale(deformed, spec.rescale)
    save_field(deformed, out / DEFORMED_FILE)
    return deformed


def trace_stage(field: GratingVectorField, probe: Wave, mode: str, out: Path) -> Trace:
    """Diffract ``probe`` through ``field`` and write OUT/rays.csv."""
    records = trace_field(field, probe, mode=mode)
    write_rays_csv(records, out / RAYS_FILE)
    return records


def analyze_stage(rays: RayBundle, spec: AnalysisSpec, out: Path) -> Tuple[List[str], Optional[dict]]:
    """Detector hits and focal scan of ``rays`` as ``spec`` asks.

    Writes OUT/hits.csv for detector planes and OUT/spots.csv plus
    OUT/scan.json for a focal scan. Returns the names written and the
    scan.json document (None without a focal scan).
    """
    written = []
    scan_summary = None
    if spec.detector_z_mm:
        planes = [intersect_plane(rays, z) for z in spec.detector_z_mm]
        write_hits_csv(planes, out / HITS_FILE)
        written.append(HITS_FILE)
    if spec.focal_scan is not None:
        fs = spec.focal_scan
        scan = focal_scan(rays, (fs.z_min, fs.z_max), fs.n_planes)
        write_spots_csv(scan.reports, out / SPOTS_FILE)
        written.append(SPOTS_FILE)
        scan_summary = {
            "z_min_mm": fs.z_min,
            "z_max_mm": fs.z_max,
            "n_planes": fs.n_planes,
            "plane_spacing_mm": scan.plane_spacing,
            "z_min_rms_x_mm": scan.z_min_rms_x,
            "z_min_rms_y_mm": scan.z_min_rms_y,
            "z_min_rms_total_mm": scan.z_min_rms_total,
            "astigmatism_mm": scan.astigmatism_mm,
            "bracketed_x": scan.bracketed_x,
            "bracketed_y": scan.bracketed_y,
            "bracketed_total": scan.bracketed_total,
            "n_rays_used": scan.n_rays_used,
            "n_rays_excluded": scan.n_rays_excluded,
        }
        _write_json(scan_summary, out / SCAN_FILE)
        written.append(SCAN_FILE)
    return written, scan_summary


def run_scene(config_path, out_dir, mode: str = "energy") -> dict:
    """Execute the full pipeline described by a scene config.

    Writes field.json, optionally field_deformed.json, rays.csv and, per the
    analysis section, hits.csv / spots.csv / scan.json into ``out_dir``.
    Returns a summary dict (also suitable for printing as JSON).
    """
    cfg: SceneConfig = load_scene_config(config_path)
    if cfg.recording is None:
        raise ConfigError("run: config needs a 'recording' section")
    if cfg.probe is None:
        raise ConfigError("run: config needs a 'probe' section")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = [FIELD_FILE]

    field = record_stage(cfg.recording, out)
    if cfg.deformation is not None:
        field = deform_stage(field, cfg.deformation, out)
        files.append(DEFORMED_FILE)
    records = trace_stage(field, cfg.probe, mode, out)
    files.append(RAYS_FILE)

    counts = records.counts()

    scan_summary = None
    if cfg.analysis is not None:
        written, scan_summary = analyze_stage(records.rays(), cfg.analysis, out)
        files.extend(written)

    return {
        "files": files,
        "n_samples": len(records),
        "counts": counts,
        "scan": scan_summary,
    }
