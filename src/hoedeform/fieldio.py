"""JSON serialization of grating vector fields.

The on-disk document holds a header (carrier descriptor, recording
wavelength, grid descriptor) and one record per sample with the plane
footprint, the world position and the frame coordinates of kg. Floats pass
through Python's shortest round-trip repr, so save -> load reproduces every
sample bit-exactly; frames are rebuilt deterministically from the carrier.

``save_field`` writes the bytes ``json.dump(field_to_dict(field), indent=1)``
would, formatting the samples through one template. :func:`write_rows` is
the text writer of every per-sample file (field, rays.csv, hits.csv): it
formats and writes ``CHUNK_ROWS`` rows at a time, so a write holds one chunk
of text, never the document.

``load_field`` holds the file's text and the samples as flat floats: one
``json.loads`` runs with a hook that moves the 8 numbers of each well-formed
sample (:func:`_sample_row`, the rule ``field_from_dict`` applies too) into
a float buffer as the sample is decoded, so the document never exists as
one object per sample. Loading validates a document by the rules of a scene
config: the carrier, grid and projection descriptors go through the config
parsers, and every malformed value raises ConfigError naming its key path
and, for samples, the first failing index. A document with a sample that is
not well-formed, or with a sample-shaped object outside the samples list,
is parsed again into plain objects, whose checks name the error.
"""

from __future__ import annotations

import json
import os
from array import array
from itertools import chain
from typing import Optional, Sequence, TextIO, Tuple, Union

import numpy as np

from .config import _check_keys, _is_finite_number, _number, parse_field_grid, parse_profile, read_input
from .errors import ConfigError, HoedeformError
from .geometry import TWO_PI
from .recording import CHUNK_ROWS, GratingVectorField
from .surfaces import SurfaceProfile

FORMAT_TAG = "hoe-field-v1"

_HEADER_KEYS = {"format", "wavelength_nm", "carrier", "grid", "samples"}
_SAMPLE_KEYS = {"s", "phi", "pos", "g"}
# Exact types of JSON numbers; a type test rejects bools.
_NUMBER_TYPES = {float, int}
# What load_field leaves in the document in place of a well-formed sample.
_TAKEN = object()

# One sample as json.dump(indent=1) lays it out inside the samples list;
# s and phi repeat along rings and azimuths and come preformatted.
_SAMPLE_TEMPLATE = (
    '  {\n   "s": %s,\n   "phi": %s,\n   "pos": [\n    %r,\n    %r,\n    %r\n   ],\n'
    '   "g": [\n    %r,\n    %r,\n    %r\n   ]\n  }'
)


def format_column(values: np.ndarray, fmt: str) -> np.ndarray:
    """``fmt % v`` for every entry of ``values`` as an object array, formatting
    each distinct value (bit pattern, so -0.0 is not 0.0) once."""
    bits, inverse = np.unique(np.ascontiguousarray(values, dtype=float).view(np.int64), return_inverse=True)
    texts = np.array([fmt % v for v in bits.view(np.float64).tolist()], dtype=object)
    return texts[inverse.ravel()]


def write_rows(fh: TextIO, template: Union[str, Sequence[str]], columns: Sequence[np.ndarray], sep: str = "") -> None:
    """Write one row per entry of the 1-D ``columns``, row i being
    ``template % (the column values at i)`` (``template[i]`` when given per
    row), rows separated by ``sep``; formatted ``CHUNK_ROWS`` rows at a time."""
    n = len(columns[0])
    for lo in range(0, n, CHUNK_ROWS):
        hi = min(lo + CHUNK_ROWS, n)
        rows = [template] * (hi - lo) if isinstance(template, str) else template[lo:hi]
        values = chain.from_iterable(zip(*(c[lo:hi].tolist() for c in columns)))
        fh.write((sep if lo else "") + sep.join(rows) % tuple(values))


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


def _is_float_value(v) -> bool:
    """True for a float, or an int (not a bool) in the float range."""
    return type(v) is float or type(v) is int and _is_finite_number(v)


def _sample_row(rec) -> Optional[list]:
    """s, phi, pos and g of a well-formed sample as a list of 8 numbers, else None.

    A well-formed sample is an object with exactly the keys s, phi, pos and
    g, where s and phi are numbers, pos and g lists of 3 numbers, and every
    int lies in the float range. The one rule of both loaders.
    """
    if type(rec) is not dict or len(rec) != 4:
        return None
    try:
        s, phi, pos, g = rec["s"], rec["phi"], rec["pos"], rec["g"]
    except KeyError:
        return None
    if not (type(pos) is list and type(g) is list and len(pos) == 3 and len(g) == 3):
        return None
    (x, y, z), (a, b, c) = pos, g
    row = [s, phi, x, y, z, a, b, c]
    # the first test passes the all-float rows save_field writes
    if float is type(s) is type(phi) is type(x) is type(y) is type(z) is type(a) is type(b) is type(c) \
            or all(map(_is_float_value, row)):
        return row
    return None


def _floats(values: list, width: int, what: str) -> np.ndarray:
    """``values`` as floats; an int beyond the float range names its sample."""
    try:
        return np.array(values, dtype=float)
    except OverflowError as exc:
        i = next(i for i, v in enumerate(values) if type(v) is int and not _is_finite_number(v))
        raise ConfigError(f"field.samples[{i // width}].{what}: {exc}") from exc


def _raise_sample_error(recs: list) -> None:
    """Raise the error of samples of which one is not well-formed: the first
    sample without exactly the sample keys, else the first with a value of
    the wrong type, else the first int beyond the float range in s, then in
    phi, pos and g."""
    for i, rec in enumerate(recs):
        if type(rec) is not dict or rec.keys() != _SAMPLE_KEYS:
            got = sorted(rec) if type(rec) is dict else type(rec).__name__
            raise ConfigError(f"field.samples[{i}]: expected an object with keys {sorted(_SAMPLE_KEYS)}, got {got}")
    for i, rec in enumerate(recs):
        if not (type(rec["s"]) in _NUMBER_TYPES and type(rec["phi"]) in _NUMBER_TYPES and _is_triple(rec["pos"])
                and _is_triple(rec["g"])):
            raise ConfigError(f"field.samples[{i}]: 's' and 'phi' must be numbers, 'pos' and 'g' lists of 3 numbers")
    _floats([rec["s"] for rec in recs], 1, "s")
    _floats([rec["phi"] for rec in recs], 1, "phi")
    _floats([v for rec in recs for v in rec["pos"]], 3, "pos")
    _floats([v for rec in recs for v in rec["g"]], 3, "g")
    raise AssertionError("samples flagged as malformed pass their checks")


def _check_header(doc: dict) -> Tuple[SurfaceProfile, float]:
    """The carrier and wavelength of a field document whose header is valid."""
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
    return carrier, wavelength_nm


def _field(carrier: SurfaceProfile, grid: dict, wavelength_nm: float, rows: np.ndarray) -> GratingVectorField:
    """The field of a checked header and the samples as rows of 8 numbers."""
    with np.errstate(invalid="ignore"):  # a non-finite phi stays nan and fails the field's check
        phi = np.mod(rows[:, 1], TWO_PI)
    try:
        # the grid dict is kept as stored, so save -> load -> save is bit-exact
        return GratingVectorField(carrier, rows[:, 0], phi, rows[:, 2:5], rows[:, 5:8], grid, wavelength_nm)
    except (ValueError, HoedeformError) as exc:
        raise ConfigError(f"field.samples: {exc}") from exc


def field_from_dict(doc: dict) -> GratingVectorField:
    carrier, wavelength_nm = _check_header(doc)
    rows = list(map(_sample_row, doc["samples"]))
    if None in rows:
        _raise_sample_error(doc["samples"])
    return _field(carrier, doc["grid"], wavelength_nm, np.array(rows, dtype=float).reshape(-1, 8))


def save_field(field: GratingVectorField, path: Union[str, os.PathLike]) -> None:
    text = json.dumps({**_header(field), "samples": []}, indent=1)
    head, tail = (text[:-len("[]\n}")] + "[\n", "\n ]\n}\n") if len(field) else (text + "\n", "")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(head)
        write_rows(fh, _SAMPLE_TEMPLATE, (format_column(field.s, "%r"), format_column(field.phi, "%r"),
                                          *field.pos.T, *field.g.T), sep=",\n")
        fh.write(tail)


def load_field(path: Union[str, os.PathLike]) -> GratingVectorField:
    """The field of a field file, which holds the file's text and the samples
    as flat floats, never the samples as JSON objects."""
    text = read_input(path, "field")
    # CHUNK_ROWS samples per buffer: one buffer grown to the whole field is
    # reallocated ~100 times, which fragments the heap and raises peak RSS
    chunks = [array("d")]

    def take(obj):  # a well-formed sample leaves its 8 numbers in ``chunks`` and a marker in the document
        row = _sample_row(obj)
        if row is None:
            return obj
        if len(chunks[-1]) == 8 * CHUNK_ROWS:
            chunks.append(array("d"))
        chunks[-1].fromlist(row)
        return _TAKEN

    try:
        doc = json.loads(text, object_hook=take)
    except (json.JSONDecodeError, RecursionError) as exc:  # nesting too deep to decode
        raise ConfigError(f"field file {path} is not valid JSON: {exc}") from exc
    numbers = np.concatenate([np.frombuffer(c, dtype=float) for c in chunks])
    recs = doc.get("samples") if type(doc) is dict else None
    if type(recs) is not list or 8 * len(recs) != len(numbers) or recs.count(_TAKEN) != len(recs):
        # a malformed sample, or one outside the samples list: the checks of a plain document name the error
        return field_from_dict(json.loads(text))
    del text
    carrier, wavelength_nm = _check_header(doc)
    return _field(carrier, doc["grid"], wavelength_nm, numbers.reshape(-1, 8))
