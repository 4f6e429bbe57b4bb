"""Command line interface.

Verbs compose through the serialized field format:

    hoedeform record --config scene.json --out OUT        -> OUT/field.json
    hoedeform deform --config scene.json --out OUT        -> OUT/field_deformed.json
    hoedeform invert --config scene.json --out OUT        -> OUT/field_planar.json
    hoedeform trace  --config scene.json --out OUT        -> OUT/rays.csv
    hoedeform scan   --config scene.json --out OUT        -> OUT/hits.csv, spots.csv, scan.json
    hoedeform run    --config scene.json --out OUT        -> full pipeline

Each verb loads its inputs and calls the same stage function of
``pipeline`` that ``run`` chains, so stepwise and one-shot outputs agree.

Exit codes: 0 ok, 2 config or usage error, 3 numeric/pipeline error, out of
memory included. Errors are emitted as one JSON object on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .config import load_scene_config
from .deformation import induce_inverse
from .errors import ConfigError, HoedeformError
from .fieldio import load_field, save_field
from .pipeline import (
    DEFORMED_FILE,
    FIELD_FILE,
    PLANAR_FILE,
    RAYS_FILE,
    analyze_stage,
    deform_stage,
    record_stage,
    run_scene,
    trace_stage,
)
from .recording import record
from .scene import read_rays_csv
from .surfaces import Projection


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error is a config error; subparsers inherit the parser class
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hoedeform", description="HOE grating-vector-field pipeline")
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True, help="scene config JSON")
        p.add_argument("--out", required=True, help="output directory")

    p_record = sub.add_parser("record", help="record a field from the recording section")
    common(p_record)

    p_deform = sub.add_parser("deform", help="push a planar field onto the deformation target")
    common(p_deform)
    p_deform.add_argument("--field", default=None, help=f"input field (default OUT/{FIELD_FILE})")

    p_invert = sub.add_parser("invert", help="pull a curved field back to a planar precompensated field")
    common(p_invert)
    p_invert.add_argument("--field", default=None, help="input curved field (default: record from config)")

    p_trace = sub.add_parser("trace", help="diffract the probe through a field")
    common(p_trace)
    p_trace.add_argument("--field", default=None,
                         help=f"input field (default OUT/{DEFORMED_FILE} if present, else OUT/{FIELD_FILE})")
    p_trace.add_argument("--mode", choices=("basic", "energy"), default="energy", help="closure mode")

    p_scan = sub.add_parser("scan", help="detector hits and focal scan over traced rays")
    common(p_scan)
    p_scan.add_argument("--rays", default=None, help=f"input rays CSV (default OUT/{RAYS_FILE})")

    p_run = sub.add_parser("run", help="full pipeline: record -> [deform] -> trace -> analyze")
    common(p_run)
    p_run.add_argument("--mode", choices=("basic", "energy"), default="energy", help="closure mode")

    return parser


def _cmd_record(args) -> dict:
    cfg = load_scene_config(args.config)
    if cfg.recording is None:
        raise ConfigError("record: config needs a 'recording' section")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    field = record_stage(cfg.recording, out)
    return {"written": [FIELD_FILE], "n_samples": len(field)}


def _cmd_deform(args) -> dict:
    cfg = load_scene_config(args.config)
    if cfg.deformation is None:
        raise ConfigError("deform: config needs a 'deformation' section")
    out = Path(args.out)
    field = load_field(Path(args.field) if args.field else out / FIELD_FILE)
    out.mkdir(parents=True, exist_ok=True)
    deformed = deform_stage(field, cfg.deformation, out)
    return {"written": [DEFORMED_FILE], "n_samples": len(deformed)}


def _cmd_invert(args) -> dict:
    cfg = load_scene_config(args.config)
    if args.field:
        field = load_field(Path(args.field))
    else:
        if cfg.recording is None:
            raise ConfigError("invert: pass --field or provide a 'recording' section for the target field")
        field = record(cfg.recording.w1, cfg.recording.w2, cfg.recording.carrier, cfg.recording.grid)
    projection = cfg.deformation.projection if cfg.deformation is not None else Projection.orthogonal()
    planar = induce_inverse(field, projection)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_field(planar, out / PLANAR_FILE)
    return {"written": [PLANAR_FILE], "n_samples": len(planar)}


def _cmd_trace(args) -> dict:
    cfg = load_scene_config(args.config)
    if cfg.probe is None:
        raise ConfigError("trace: config needs a 'probe' section")
    out = Path(args.out)
    if args.field:
        src = Path(args.field)
    else:
        src = out / DEFORMED_FILE if (out / DEFORMED_FILE).exists() else out / FIELD_FILE
    field = load_field(src)
    out.mkdir(parents=True, exist_ok=True)
    records = trace_stage(field, cfg.probe, args.mode, out)
    return {"written": [RAYS_FILE], "n_samples": len(records)}


def _cmd_scan(args) -> dict:
    cfg = load_scene_config(args.config)
    if cfg.analysis is None:
        raise ConfigError("scan: config needs an 'analysis' section")
    out = Path(args.out)
    rays = read_rays_csv(Path(args.rays) if args.rays else out / RAYS_FILE)
    out.mkdir(parents=True, exist_ok=True)
    written, _ = analyze_stage(rays, cfg.analysis, out)
    if not written:
        raise ConfigError("scan: analysis section requests no detector planes and no focal scan")
    return {"written": written, "n_rays": len(rays)}


def _cmd_run(args) -> dict:
    return run_scene(args.config, args.out, mode=args.mode)


_COMMANDS = {
    "record": _cmd_record,
    "deform": _cmd_deform,
    "invert": _cmd_invert,
    "trace": _cmd_trace,
    "scan": _cmd_scan,
    "run": _cmd_run,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        summary = _COMMANDS[args.verb](args)
    except (HoedeformError, ValueError, ArithmeticError, MemoryError) as exc:
        print(json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}), file=sys.stderr)
        return 2 if isinstance(exc, ConfigError) else 3
    print(json.dumps(summary, sort_keys=True))
    return 0


def app() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
