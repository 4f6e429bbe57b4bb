"""JSON serialization of grating vector fields.

The on-disk document holds a header (carrier descriptor, recording
wavelength, grid descriptor) and one record per sample with the plane
footprint, the world position and the frame coordinates of kg. Floats pass
through Python's shortest round-trip repr, so save -> load reproduces every
sample bit-exactly; frames are rebuilt deterministically from the carrier.

``save_field`` writes the bytes ``json.dump(field_to_dict(field), indent=1)``
would, formatting all samples through one template. Loading validates a
document by the rules of a scene config, column by column: the carrier, grid
and projection descriptors go through the config parsers, and every
malformed value raises ConfigError naming its key path and, for samples,
the first failing index.
"""

from __future__ import annotations

import json
import os
from itertools import chain
from typing import Union

import numpy as np

from .config import _check_keys, _is_finite_number, _number, parse_field_grid, parse_profile
from .errors import ConfigError, HoedeformError
from .geometry import TWO_PI
from .recording import GratingVectorField

FORMAT_TAG = "hoe-field-v1"

_HEADER_KEYS = {"format", "wavelength_nm", "carrier", "grid", "samples"}
_SAMPLE_KEYS = {"s", "phi", "pos", "g"}
# Exact types of JSON numbers; a type test rejects bools.
_NUMBER_TYPES = {float, int}

# One sample as json.dump(indent=1) lays it out inside the samples list;
# s and phi repeat along rings and azimuths and come preformatted.
_SAMPLE_TEMPLATE = (
    '  {\n   "s": %s,\n   "phi": %s,\n   "pos": [\n    %r,\n    %r,\n    %r\n   ],\n'
    '   "g": [\n    %r,\n    %r,\n    %r\n   ]\n  }'
)


def format_column(values: np.ndarray, fmt: str) -> list:
    """``fmt % v`` for every entry of ``values``, formatting each distinct
    value (bit pattern, so -0.0 is not 0.0) once."""
    bits, inverse = np.unique(np.ascontiguousarray(values, dtype=float).view(np.int64), return_inverse=True)
    texts = np.array([fmt % v for v in bits.view(np.float64).tolist()], dtype=object)
    return texts[inverse.ravel()].tolist()


def _header(field: GratingVectorField) -> dict:
    return {
        "format": FORMAT_TAG,
        "wavelength_nm": field.wavelength_nm,
        "carrier": field.carrier.descriptor(),
        "grid": field.grid,
    }


def field_to_dict(field: GratingVectorField) -> dict:
    samples = [{"s": s, "phi": phi, "pos": p, "g": g}
               for s, phi, p, g in zip(field.s.tolist(), field.phi.tolist(), field.pos.tolist(), field.g.tolist())]
    return {**_header(field), "samples": samples}


def _is_triple(v) -> bool:
    return type(v) is list and len(v) == 3 and all(type(c) in _NUMBER_TYPES for c in v)


def _typed(values, types) -> bool:
    return set(map(type, values)) <= types


def _floats(values: list, width: int, what: str) -> np.ndarray:
    """``values`` as floats; an int beyond the float range names its sample."""
    try:
        return np.array(values, dtype=float)
    except OverflowError as exc:
        i = next(i for i, v in enumerate(values) if type(v) is int and not _is_finite_number(v))
        raise ConfigError(f"field.samples[{i // width}].{what}: {exc}") from exc


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
    recs = doc["samples"]
    if type(recs) is not list:
        raise ConfigError(f"field.samples: expected a list, got {type(recs).__name__}")

    for i, rec in enumerate(recs):
        if type(rec) is not dict or rec.keys() != _SAMPLE_KEYS:
            got = sorted(rec) if type(rec) is dict else type(rec).__name__
            raise ConfigError(f"field.samples[{i}]: expected an object with keys {sorted(_SAMPLE_KEYS)}, got {got}")
    s, phi, pos, g = ([rec[key] for rec in recs] for key in ("s", "phi", "pos", "g"))
    ok = (_typed(s, _NUMBER_TYPES) and _typed(phi, _NUMBER_TYPES) and _typed(pos, {list}) and _typed(g, {list})
          and set(map(len, pos)) <= {3} and set(map(len, g)) <= {3})
    flat_pos, flat_g = (list(chain.from_iterable(v)) for v in (pos, g)) if ok else ([], [])
    if not (ok and _typed(flat_pos, _NUMBER_TYPES) and _typed(flat_g, _NUMBER_TYPES)):
        i = next(i for i, rec in enumerate(recs) if not (type(rec["s"]) in _NUMBER_TYPES and type(rec["phi"])
                                                          in _NUMBER_TYPES and _is_triple(rec["pos"])
                                                          and _is_triple(rec["g"])))
        raise ConfigError(f"field.samples[{i}]: 's' and 'phi' must be numbers, 'pos' and 'g' lists of 3 numbers")
    s, phi = _floats(s, 1, "s"), _floats(phi, 1, "phi")
    pos, g = _floats(flat_pos, 3, "pos").reshape(-1, 3), _floats(flat_g, 3, "g").reshape(-1, 3)
    with np.errstate(invalid="ignore"):  # a non-finite phi stays nan and fails the field's check
        phi = np.mod(phi, TWO_PI)
    try:
        # the grid dict is kept as stored, so save -> load -> save is bit-exact
        return GratingVectorField(carrier, s, phi, pos, g, doc["grid"], wavelength_nm)
    except (ValueError, HoedeformError) as exc:
        raise ConfigError(f"field.samples: {exc}") from exc


def save_field(field: GratingVectorField, path: Union[str, os.PathLike]) -> None:
    text = json.dumps({**_header(field), "samples": []}, indent=1)
    if len(field):
        columns = (format_column(field.s, "%r"), format_column(field.phi, "%r"), *field.pos.T.tolist(),
                   *field.g.T.tolist())
        samples = ",\n".join([_SAMPLE_TEMPLATE] * len(field)) % tuple(chain.from_iterable(zip(*columns)))
        text = text[:-len("[]\n}")] + "[\n" + samples + "\n ]\n}"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")


def load_field(path: Union[str, os.PathLike]) -> GratingVectorField:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"field file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"field file {path} is not valid JSON: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"field file {path} cannot be read: {exc}") from exc
    return field_from_dict(doc)
