"""JSON serialization of grating vector fields.

The on-disk document holds a header (carrier descriptor, recording
wavelength, grid descriptor) and one record per sample with the plane
footprint, the world position and the frame coordinates of kg. Floats pass
through Python's shortest round-trip repr, so save -> load reproduces every
sample bit-exactly; frames are rebuilt deterministically from the carrier.

``save_field`` writes the bytes ``json.dump(field_to_dict(field),
indent=1)`` would. :func:`write_rows` is the row assembler of every
per-sample file (field, rays.csv, hits.csv, spots.csv): the numbers of a row
come from the whole-array kernel of ``numtext`` (CPython's ``repr`` or ``%``
for each value it cannot certify), run on ``BLOCK_VALUES`` values at a time,
and the rows are assembled in a buffer under 120 KiB that holds their
literal text once for each layout of cell widths, then written to the binary
file with their NUL padding dropped, so a write holds a block of text, never
the document; the block, its text and the buffer stay under the heap's 1 MiB
thresholds. A column that falls into few runs of equal rows, such as a
polar grid's ``s`` or the ``z`` of a planar field, is formatted once a run
(``_run_starts``).

``load_field`` reads a regular file in save_field's layout, final newline
included (``_load_saved``), a block of ``READ_BLOCK_BYTES`` at a time: the
header, up to the line that opens the samples list, is decoded as UTF-8
and parsed by ``json.loads``; the samples must match ``_SAMPLE_TEXT`` byte
for byte between their numbers (``_saved_samples``), and
``numtext.read_floats`` turns the plain decimals into floats; a number it
refuses, any in exponent notation among them, goes to ``float`` when it is
a JSON float (``float`` is what ``json.loads`` applies to one). Any other file goes to the JSON text
parser (``_load_text``): a pipe or other input that can be read only once,
one that is not UTF-8, has a "\\r", a BOM, other whitespace, another key
order, a JSON int such as ``-0`` (an int to ``json.loads``, not -0.0) or
anything after the document, and one that fails any check. The text
parser is thus the one source of error messages, and the values are the
same either way.

The text parser reads the file whole (``read_input``), parses it with one
``json.loads`` into plain objects and checks them by ``field_from_dict``:
at 10 001 samples it peaks at ~3.5 times the file and the block reader at
~0.8 times it (tracemalloc). Loading validates a document by the
rules of a scene config: the carrier, grid and projection descriptors go
through the config parsers, and every malformed value raises ConfigError
naming its key path and, for samples, the first failing index
(``_sample_columns``, the one statement of the sample rule).
"""

from __future__ import annotations

import json
import os
import re
import stat
from itertools import chain
from typing import BinaryIO, Optional, Sequence, Tuple, Union

import numpy as np

from .config import (_check_keys, _is_finite_number, _number, byte_blocks, parse_field_grid,
                     parse_json, parse_profile, read_input)
from .errors import ConfigError, HoedeformError
from .geometry import TWO_PI
from .numtext import BLOCK_VALUES, float_tokens, read_floats, repr_text
from .recording import GratingVectorField
from .surfaces import SurfaceProfile

FORMAT_TAG = "hoe-field-v1"

_HEADER_KEYS = {"format", "wavelength_nm", "carrier", "grid", "samples"}
_SAMPLE_KEYS = {"s", "phi", "pos", "g"}
# Exact types of JSON numbers; a type test rejects bools.
_NUMBER_TYPES = {float, int}

# One sample as json.dump(indent=1) lays it out inside the samples list,
# between its eight numbers.
_SAMPLE_TEXT = (b'  {\n   "s": ', b',\n   "phi": ', b',\n   "pos": [\n    ', b',\n    ', b',\n    ',
                b'\n   ],\n   "g": [\n    ', b',\n    ', b',\n    ', b'\n   ]\n  }')
# The rest of save_field's layout: the line that ends the header; the bytes
# of a sample after the ",\n" that precedes it, its numbers deleted; the
# lengths of the gaps before its 8 numbers, the first one counted from the
# end of the sample before; and the end of the file.
_SAMPLES_LINE = b'\n "samples": [\n'
_UNIT_TEXT = b",\n" + b"".join(_SAMPLE_TEXT)
_UNIT_GAPS = np.array([len(_SAMPLE_TEXT[-1] + b",\n" + _SAMPLE_TEXT[0]), *map(len, _SAMPLE_TEXT[1:-1])])
_TAIL = b"\n ]\n}\n"
_NUMBER_BYTES = b"0123456789.eE+-"
_MINUS, _PLUS, _E = b"-+e"
# A JSON number with a fraction or an exponent, which json.loads reads as float(text).
_JSON_FLOAT = re.compile(rb"-?(?:0|[1-9][0-9]*)(?:\.[0-9]+(?:[eE][-+]?[0-9]+)?|[eE][-+]?[0-9]+)")
# Bytes of a field file read at a time: ~7 000 numbers of save_field's layout,
# whose per-block peak with the block stays under the heap's 1 MiB thresholds
# (``hoedeform.heap``).
READ_BLOCK_BYTES = 192 * 1024
# Bytes of the buffer that rows are assembled in and written from, under
# glibc's default 128 KiB mmap threshold (the package fixes it at 1 MiB, see
# ``heap``).
_CHUNK_BYTES = 120 * 1024


def _run_starts(columns: Sequence, n: int) -> Optional[np.ndarray]:
    """The flags of the rows at which a run of rows equal in every column
    starts, floats compared by their bits (so 0.0 and -0.0 differ and equal
    nans do not); None unless the runs are at most a quarter of the n rows."""
    if n == 0:
        return None
    new = np.zeros(n, dtype=bool)
    new[0] = True
    for a in columns:
        if a.dtype.kind == "f":
            a = a.view(f"i{a.dtype.itemsize}")
        new[1:] |= a[1:] != a[:-1]
    return new if 4 * np.count_nonzero(new) <= n else None


def write_rows(fh: BinaryIO, parts: Sequence[Union[bytes, tuple]], n: int, sep: bytes = b"") -> None:
    """Write ``n`` rows to the binary file ``fh``, rows separated by ``sep``.

    Row i is the ``parts`` in order: a ``bytes`` part is the same on every row;
    a ``(function, column, ...)`` part is row i of ``function(column, ...)``,
    an (rows, width) uint8 block of text with NULs in it, such as
    ``numtext.repr_text`` returns, whose row i depends on row i of the columns
    alone. A column is an array. The parts of one function run as one call on
    their columns end to end, ``BLOCK_VALUES`` values at a time; a part whose
    rows fall into at most n/4 runs of rows equal in every column
    (``_run_starts``) gives the call one row of each run and repeats its text,
    cut to the bytes its runs use. The rows are assembled in a buffer of under
    120 KiB that holds the ``bytes`` parts once for each layout of cell
    widths, so that a chunk of rows copies only its number cells; each chunk
    is written with its NULs dropped. A block frees its text before the next
    one is formatted.
    """
    parts = (sep, *parts)
    calls = {}  # function -> the indexes of its parts
    runs = {}  # the index of a part with few runs -> the flags of its run starts
    for i, part in enumerate(parts):
        if not isinstance(part, bytes):
            calls.setdefault(part[0], []).append(i)
            new = _run_starts(part[1:], n)
            if new is not None:
                runs[i] = new
    block = max(1, BLOCK_VALUES // max(map(len, calls.values()), default=1))
    layout, filled, lead = None, 0, sep  # the rows of the buffer filled, and what the next chunk drops
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        cells = {}
        for function, where in calls.items():
            # the rows each part formats, all of the block's or the first of each
            # run that meets it, and then the length of each such run
            picks = []
            for i in where:
                if i in runs:
                    new = runs[i][lo:hi].copy()
                    new[0] = True
                    first = np.flatnonzero(new)
                    lengths = np.empty_like(first)
                    lengths[:-1] = first[1:]
                    lengths[-1] = hi - lo
                    lengths -= first
                    picks.append((first, lengths))
                else:
                    picks.append((slice(None), None))
            args = (np.concatenate([parts[i][k][lo:hi][taken] for i, (taken, _) in zip(where, picks)])
                    for k in range(1, len(parts[where[0]])))
            text = function(*args)
            at = 0
            for i, (taken, lengths) in zip(where, picks):
                count = hi - lo if lengths is None else len(taken)
                cell = text[at:at + count]
                if lengths is not None:  # its own width, not that of the call, then a row for each row
                    used = np.flatnonzero(cell.any(axis=0))
                    cell = np.repeat(cell[:, used[0]:used[-1] + 1] if len(used) else cell[:, :0], lengths, axis=0)
                cells[i] = cell
                at += count
            del text
        widths = [cells[i].shape[1] if i in cells else len(part) for i, part in enumerate(parts)]
        if widths != layout:
            if filled:
                _flush(fh, rows[:filled], lead)
                filled, lead = 0, b""
            layout, rows = widths, None
            rows = np.empty((min(max(1, _CHUNK_BYTES // sum(widths)), n), sum(widths)), dtype=np.uint8)
            spans, at = [], 0
            for i, width in enumerate(widths):
                if i in cells:
                    spans.append((i, at, width))
                else:
                    rows[:, at:at + width] = np.frombuffer(parts[i], dtype=np.uint8)
                at += width
        a = 0
        while a < hi - lo:  # a chunk of rows may hold rows of two blocks
            b = min(a + len(rows) - filled, hi - lo)
            for i, at, width in spans:
                rows[filled:filled + b - a, at:at + width] = cells[i][a:b]
            filled += b - a
            a = b
            if filled == len(rows):
                _flush(fh, rows, lead)
                filled, lead = 0, b""
        del cells
    if filled:
        _flush(fh, rows[:filled], lead)


def _flush(fh: BinaryIO, rows: np.ndarray, lead: bytes) -> None:
    """Write the text of ``rows`` with its NULs dropped and its first
    ``len(lead)`` bytes (the separator before the first row) left out."""
    text = rows.tobytes().translate(None, b"\0")
    fh.write(text[len(lead):] if lead else text)


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


def _floats(values: list, width: int, what: str) -> np.ndarray:
    """``values`` as floats; an int beyond the float range names its sample."""
    try:
        return np.array(values, dtype=float)
    except OverflowError as exc:
        i = next(i for i, v in enumerate(values) if type(v) is int and not _is_finite_number(v))
        raise ConfigError(f"field.samples[{i // width}].{what}: {exc}") from exc


def _sample_columns(recs: list) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The s, phi, pos and g columns of the samples ``recs``, each a sample
    with exactly the keys s, phi, pos and g, where s and phi are numbers,
    pos and g lists of 3 numbers, and every int lies in the float range.
    The first error is that of the first sample without exactly the sample
    keys, else the first with a value of the wrong type, else the first int
    beyond the float range in s, then in phi, pos and g."""
    for i, rec in enumerate(recs):
        if type(rec) is not dict or rec.keys() != _SAMPLE_KEYS:
            got = sorted(rec) if type(rec) is dict else type(rec).__name__
            raise ConfigError(f"field.samples[{i}]: expected an object with keys {sorted(_SAMPLE_KEYS)}, got {got}")
    for i, rec in enumerate(recs):
        pos, g = rec["pos"], rec["g"]
        if not (type(pos) is list and type(g) is list and len(pos) == 3 and len(g) == 3
                and _NUMBER_TYPES.issuperset(map(type, [rec["s"], rec["phi"], *pos, *g]))):
            raise ConfigError(f"field.samples[{i}]: 's' and 'phi' must be numbers, 'pos' and 'g' lists of 3 numbers")
    return (_floats([rec["s"] for rec in recs], 1, "s"), _floats([rec["phi"] for rec in recs], 1, "phi"),
            _floats([v for rec in recs for v in rec["pos"]], 3, "pos").reshape(-1, 3),
            _floats([v for rec in recs for v in rec["g"]], 3, "g").reshape(-1, 3))


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


def _field_of_columns(carrier: SurfaceProfile, grid: dict, wavelength_nm: float, s: np.ndarray, phi: np.ndarray,
                      pos: np.ndarray, g: np.ndarray) -> GratingVectorField:
    """The field of a checked header and its sample columns. ``phi`` is
    reduced mod 2 pi in place; the field shares read-only float columns and
    copies the others."""
    with np.errstate(invalid="ignore"):  # a non-finite phi stays nan and fails the field's check
        np.mod(phi, TWO_PI, out=phi)
    phi.flags.writeable = False
    try:
        # the grid dict is kept as stored, so save -> load -> save is bit-exact
        return GratingVectorField(carrier, s, phi, pos, g, grid, wavelength_nm)
    except (ValueError, HoedeformError) as exc:
        raise ConfigError(f"field.samples: {exc}") from exc


def field_from_dict(doc: dict) -> GratingVectorField:
    carrier, wavelength_nm = _check_header(doc)
    s, phi, pos, g = _sample_columns(doc["samples"])
    for a in (s, pos, g):
        a.flags.writeable = False  # so that the field shares them
    return _field_of_columns(carrier, doc["grid"], wavelength_nm, s, phi, pos, g)


def save_field(field: GratingVectorField, path: Union[str, os.PathLike]) -> None:
    text = json.dumps({**_header(field), "samples": []}, indent=1)
    head, tail = (text[:-len("[]\n}")] + "[\n", "\n ]\n}\n") if len(field) else (text + "\n", "")
    numbers = [(repr_text, column) for column in (field.s, field.phi, *field.pos.T, *field.g.T)]
    with open(path, "wb") as fh:
        fh.write(head.encode("ascii"))
        write_rows(fh, [*chain.from_iterable(zip(_SAMPLE_TEXT, numbers)), _SAMPLE_TEXT[-1]], len(field), sep=b",\n")
        fh.write(tail.encode("ascii"))


def _saved_samples(block: bytes) -> Optional[np.ndarray]:
    """The (k, 8) numbers of ``block``, k samples each after its separator
    in save_field's layout with numbers json.loads reads as floats, else None."""
    b = np.frombuffer(block, dtype=np.uint8)
    # the bytes of _NUMBER_BYTES: "-" to "9" but "/", "+", "e" and "E"
    number = ((b - _MINUS) < 13) & (b != 0x2F) | (b == _PLUS) | ((b | 0x20) == _E)
    edges = np.flatnonzero(number[1:] != number[:-1])
    del number  # before the kernel runs, as are the gaps
    edges += 1
    starts, ends = edges[0::2], edges[1::2]
    k = len(ends) // 8
    if not (0 < 16 * k == len(edges) and block.translate(None, _NUMBER_BYTES) == _UNIT_TEXT * k):
        return None
    gaps = starts - np.concatenate(([-len(_SAMPLE_TEXT[-1])], ends[:-1]))
    if not ((gaps.reshape(k, 8) == _UNIT_GAPS).all() and len(block) - ends[-1] == len(_SAMPLE_TEXT[-1])):
        return None
    del gaps
    values, certified = read_floats(block, starts, ends, ints=False)
    refused = np.flatnonzero(~certified)
    if len(refused):
        starts, ends = starts[refused], ends[refused]
        if not all(_JSON_FLOAT.fullmatch(block, a, b) for a, b in zip(starts.tolist(), ends.tolist())):
            return None  # a JSON int such as -0, which json.loads reads as int 0, or no JSON number
        values[refused] = float_tokens(block, starts, ends)
    return values.reshape(k, 8)


def _load_saved(path: Union[str, os.PathLike]) -> Optional[GratingVectorField]:
    """The field of a valid field file in save_field's layout, else None.

    Only a regular file is read, so that the text parser still gets all of
    an input that can be read once, such as a pipe."""
    try:
        if not stat.S_ISREG(os.stat(path).st_mode):
            return None
        with open(path, "rb") as fh:
            first = fh.read(READ_BLOCK_BYTES)
            at = first.find(_SAMPLES_LINE)
            if at < 0 or b"\r" in first[:at]:  # a text read would turn "\r" into "\n"
                return None
            doc = json.loads(first[:at].decode("utf-8") + '\n "samples": []\n}')
            carrier, wavelength_nm = _check_header(doc)
            blocks = byte_blocks(fh, b",\n" + first[at + len(_SAMPLES_LINE):], _SAMPLE_TEXT[-1], READ_BLOCK_BYTES)
            del first
            chunks, tail = [], False
            for block in blocks:
                if tail:
                    return None
                body = block.removesuffix(_TAIL)
                tail = len(body) < len(block)
                if body:
                    rows = _saved_samples(body)
                    if rows is None:
                        return None
                    chunks.append(rows)
            if not (tail and chunks):
                return None
            s, phi, pos, g = (np.concatenate([rows[:, cols] for rows in chunks])
                              for cols in (0, 1, slice(2, 5), slice(5, 8)))
            del chunks, rows  # the rows are gone before the field's checks run
            for a in (s, pos, g):
                a.flags.writeable = False  # so that the field shares them
            return _field_of_columns(carrier, doc["grid"], wavelength_nm, s, phi, pos, g)
    except (OSError, ValueError, RecursionError, ConfigError):  # not UTF-8, not JSON, or a failed check
        return None


def load_field(path: Union[str, os.PathLike]) -> GratingVectorField:
    """The field of a field file.

    A file in save_field's layout is read a block at a time by the number
    kernel of ``numtext`` (``_load_saved``); any other file, and any file
    that fails a check, is parsed as JSON text (``_load_text``), whose
    checks name the error.
    """
    field = _load_saved(path)
    return field if field is not None else _load_text(path)


def _load_text(path: Union[str, os.PathLike]) -> GratingVectorField:
    """The field of a field file read whole as JSON text, whose checks name the error."""
    return field_from_dict(parse_json(read_input(path, "field"), path, "field"))
