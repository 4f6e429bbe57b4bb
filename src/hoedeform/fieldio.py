"""JSON serialization of grating vector fields.

The on-disk document holds a header (carrier descriptor, recording
wavelength, grid descriptor) and one record per sample with the plane
footprint, the world position and the frame coordinates of kg. Floats pass
through Python's shortest round-trip repr, so save -> load reproduces every
sample bit-exactly; frames are rebuilt deterministically from the carrier.

Loading validates a document by the rules of a scene config: the carrier,
grid and projection descriptors go through the config parsers, and every
malformed value raises ConfigError naming its key path.
"""

from __future__ import annotations

import json
import os
from typing import Union

from .config import _check_keys, _number, parse_field_grid, parse_profile
from .errors import ConfigError, HoedeformError
from .geometry import FrameCoords, PolarPoint, Vec3, build_frame
from .recording import GratingSample, GratingVectorField

FORMAT_TAG = "hoe-field-v1"

_HEADER_KEYS = {"format", "wavelength_nm", "carrier", "grid", "samples"}
_SAMPLE_KEYS = {"s", "phi", "pos", "g"}
# Exact types of JSON numbers; ``type(v) in`` rejects bools cheaply per sample.
_NUMBER_TYPES = (float, int)


def _is_triple(v) -> bool:
    return (type(v) is list and len(v) == 3 and type(v[0]) in _NUMBER_TYPES
            and type(v[1]) in _NUMBER_TYPES and type(v[2]) in _NUMBER_TYPES)


def field_to_dict(field: GratingVectorField) -> dict:
    return {
        "format": FORMAT_TAG,
        "wavelength_nm": field.wavelength_nm,
        "carrier": field.carrier.descriptor(),
        "grid": field.grid,
        "samples": [
            {
                "s": smp.footprint.s,
                "phi": smp.footprint.phi,
                "pos": [smp.position.x, smp.position.y, smp.position.z],
                "g": [smp.coords.g1, smp.coords.g2, smp.coords.g3],
            }
            for smp in field.samples
        ],
    }


def field_from_dict(doc: dict) -> GratingVectorField:
    _check_keys(doc, _HEADER_KEYS, "field")
    missing = _HEADER_KEYS - set(doc)
    if missing:
        raise ConfigError(f"field: missing keys {sorted(missing)}")
    if doc["format"] != FORMAT_TAG:
        raise ConfigError(f"field.format: unsupported field format {doc['format']!r} (expected {FORMAT_TAG!r})")
    wavelength_nm = _number(doc, "wavelength_nm", "field")
    if not wavelength_nm > 0.0:
        raise ConfigError(f"field.wavelength_nm: must be > 0, got {wavelength_nm}")
    carrier = parse_profile(doc["carrier"], "field.carrier")
    parse_field_grid(doc["grid"], "field.grid")
    if type(doc["samples"]) is not list:
        raise ConfigError(f"field.samples: expected a list, got {type(doc['samples']).__name__}")

    samples = []
    for i, rec in enumerate(doc["samples"]):
        if type(rec) is not dict or rec.keys() != _SAMPLE_KEYS:
            got = sorted(rec) if type(rec) is dict else type(rec).__name__
            raise ConfigError(f"field.samples[{i}]: expected an object with keys {sorted(_SAMPLE_KEYS)}, got {got}")
        s, phi, pos, g = rec["s"], rec["phi"], rec["pos"], rec["g"]
        if not (type(s) in _NUMBER_TYPES and type(phi) in _NUMBER_TYPES and _is_triple(pos) and _is_triple(g)):
            raise ConfigError(f"field.samples[{i}]: 's' and 'phi' must be numbers, 'pos' and 'g' lists of 3 numbers")
        try:
            fp = PolarPoint(s, phi)
            coords = FrameCoords(*g)
            samples.append(GratingSample(fp, Vec3(*pos), build_frame(carrier, fp), coords, coords.magnitude()))
        except (ValueError, ArithmeticError, HoedeformError) as exc:
            raise ConfigError(f"field.samples[{i}]: {exc}") from exc
    try:
        # the grid dict is kept as stored, so save -> load -> save is bit-exact
        return GratingVectorField(carrier, tuple(samples), doc["grid"], wavelength_nm)
    except (ValueError, HoedeformError) as exc:
        raise ConfigError(f"field: inconsistent field document: {exc}") from exc


def save_field(field: GratingVectorField, path: Union[str, os.PathLike]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(field_to_dict(field), fh, indent=1)
        fh.write("\n")


def load_field(path: Union[str, os.PathLike]) -> GratingVectorField:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"field file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"field file {path} is not valid JSON: {exc}") from exc
    return field_from_dict(doc)
