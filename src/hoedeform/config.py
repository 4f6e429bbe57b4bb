"""Scene configuration: strict JSON schema -> domain objects.

A scene is a single JSON document with sections

    wavelength   {"lambda_nm": ...}                        (required)
    recording    {"w1": ..., "w2": ..., "carrier": ..., "grid": ...}
    deformation  {"target_profile": ..., "projection": ..., "rescale": ...}
    probe        wave descriptor
    analysis     {"detector_z_mm": [...], "focal_scan": {...}}

Wave descriptors: {"kind": "plane", "dir": [x, y, z]},
{"kind": "spherical_diverging", "origin_mm": [...]} or
{"kind": "spherical_converging", "target_mm": [...]}; each may carry its own
"lambda_nm" (defaulting to the top-level wavelength) and "amplitude".
"projection" is the string "orthogonal" (the default) or
{"center_z_mm": z}. Unknown keys anywhere are errors, and so are numbers
that are not finite (JSON 1e400 reads as inf).

The profile, grid and projection parsers here are the only decoders of
those descriptors: field files (``fieldio``) use them too.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, List, Optional, TextIO, Tuple, Union

from .errors import ConfigError
from .geometry import Vec3
from .recording import CHUNK_ROWS, CartesianGrid, GridSpec, PolarGrid
from .surfaces import Projection, SurfaceProfile
from .waves import Wave, Wavelength


@dataclass(frozen=True)
class RecordingSpec:
    w1: Wave
    w2: Wave
    carrier: SurfaceProfile
    grid: GridSpec


@dataclass(frozen=True)
class FocalScanSpec:
    z_min: float
    z_max: float
    n_planes: int


@dataclass(frozen=True)
class AnalysisSpec:
    detector_z_mm: Tuple[float, ...]
    focal_scan: Optional[FocalScanSpec]


@dataclass(frozen=True)
class DeformationSpec:
    target_profile: SurfaceProfile
    projection: Projection
    rescale: Optional[float]


@dataclass(frozen=True)
class SceneConfig:
    wavelength: Wavelength
    recording: Optional[RecordingSpec]
    deformation: Optional[DeformationSpec]
    probe: Optional[Wave]
    analysis: Optional[AnalysisSpec]


def _check_keys(d: dict, allowed: set, ctx: str, required: Tuple[str, ...] = ()) -> None:
    """``d`` is an object with keys from ``allowed`` and ``required``, every required key included."""
    if not isinstance(d, dict):
        raise ConfigError(f"{ctx}: expected an object, got {type(d).__name__}")
    extra = set(d).difference(allowed, required)
    if extra:
        raise ConfigError(f"{ctx}: unknown keys {sorted(extra)}")
    for key in required:
        if key not in d:
            raise ConfigError(f"{ctx}: missing key {key!r}")


def _is_finite_number(v) -> bool:
    """True for an int or float (not a bool) that is a finite float."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:  # an int beyond the float range
        return False


def _number(d: dict, key: str, ctx: str) -> float:
    if key not in d:
        raise ConfigError(f"{ctx}: missing key {key!r}")
    v = d[key]
    if not _is_finite_number(v):
        raise ConfigError(f"{ctx}.{key}: expected a finite number, got {v!r}")
    return float(v)


def _integer(d: dict, key: str, ctx: str) -> int:
    if key not in d:
        raise ConfigError(f"{ctx}: missing key {key!r}")
    v = d[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{ctx}.{key}: expected an integer, got {v!r}")
    return v


def _vec3(d: dict, key: str, ctx: str) -> Vec3:
    if key not in d:
        raise ConfigError(f"{ctx}: missing key {key!r}")
    v = d[key]
    if not (isinstance(v, list) and len(v) == 3 and all(_is_finite_number(c) for c in v)):
        raise ConfigError(f"{ctx}.{key}: expected a list of 3 finite numbers, got {v!r}")
    return Vec3(float(v[0]), float(v[1]), float(v[2]))


def _parse_wave(d: dict, default_lambda: Wavelength, ctx: str) -> Wave:
    if not isinstance(d, dict) or "kind" not in d:
        raise ConfigError(f"{ctx}: wave descriptor must be an object with a 'kind'")
    kind = d["kind"]
    try:
        lam = Wavelength(_number(d, "lambda_nm", ctx)) if "lambda_nm" in d else default_lambda
        amp = _number(d, "amplitude", ctx) if "amplitude" in d else 1.0
        if kind == "plane":
            _check_keys(d, {"kind", "dir", "lambda_nm", "amplitude"}, ctx)
            return Wave.plane(_vec3(d, "dir", ctx), lam, amp)
        if kind == "spherical_diverging":
            _check_keys(d, {"kind", "origin_mm", "lambda_nm", "amplitude"}, ctx)
            return Wave.diverging(_vec3(d, "origin_mm", ctx), lam, amp)
        if kind == "spherical_converging":
            _check_keys(d, {"kind", "target_mm", "lambda_nm", "amplitude"}, ctx)
            return Wave.converging(_vec3(d, "target_mm", ctx), lam, amp)
    except ValueError as exc:
        raise ConfigError(f"{ctx}: {exc}") from exc
    raise ConfigError(f"{ctx}.kind: unknown wave kind {kind!r}")


def parse_profile(d: dict, ctx: str) -> SurfaceProfile:
    """Surface profile from its descriptor (see ``SurfaceProfile.descriptor``)."""
    if not isinstance(d, dict) or "kind" not in d:
        raise ConfigError(f"{ctx}: profile descriptor must be an object with a 'kind'")
    kind = d["kind"]
    try:
        if kind == "planar":
            _check_keys(d, {"kind", "domain_radius_mm"}, ctx)
            return SurfaceProfile.planar(_number(d, "domain_radius_mm", ctx))
        if kind == "sphere_cap":
            _check_keys(d, {"kind", "radius_mm", "domain_radius_mm"}, ctx)
            return SurfaceProfile.sphere_cap(_number(d, "radius_mm", ctx), _number(d, "domain_radius_mm", ctx))
    except ValueError as exc:
        raise ConfigError(f"{ctx}: {exc}") from exc
    raise ConfigError(f"{ctx}.kind: unknown profile kind {kind!r} (descriptors support 'planar' and "
                      "'sphere_cap'; custom_convex profiles carry callables and cannot be rebuilt)")


def parse_grid(d: dict, ctx: str) -> GridSpec:
    """Polar or cartesian grid from its descriptor (see ``PolarGrid.descriptor``)."""
    if not isinstance(d, dict) or "kind" not in d:
        raise ConfigError(f"{ctx}: grid descriptor must be an object with a 'kind'")
    kind = d["kind"]
    try:
        if kind == "polar":
            _check_keys(d, {"kind", "n_s", "n_phi", "s_max_mm", "include_vertex"}, ctx)
            include_vertex = d.get("include_vertex", True)
            if not isinstance(include_vertex, bool):
                raise ConfigError(f"{ctx}.include_vertex: expected a boolean")
            # PolarGrid.descriptor() writes null when the grid spans the carrier domain
            s_max = None if d.get("s_max_mm") is None else _number(d, "s_max_mm", ctx)
            return PolarGrid(_integer(d, "n_s", ctx), _integer(d, "n_phi", ctx),
                             s_max=s_max, include_vertex=include_vertex)
        if kind == "cartesian":
            _check_keys(d, {"kind", "n_x", "n_y", "half_width_mm"}, ctx)
            return CartesianGrid(_integer(d, "n_x", ctx), _integer(d, "n_y", ctx),
                                 _number(d, "half_width_mm", ctx))
    except ValueError as exc:
        raise ConfigError(f"{ctx}: {exc}") from exc
    raise ConfigError(f"{ctx}.kind: unknown grid kind {kind!r}")


def parse_field_grid(d: dict, ctx: str) -> GridSpec:
    """Base lattice of a field's grid descriptor.

    Induction wraps the source field's grid as {"kind": "induced" or
    "induced_inverse", "projection": ..., "source_grid": ...}; the wrappers
    are checked and unwrapped down to the polar or cartesian grid the
    samples were laid out on.
    """
    while isinstance(d, dict) and d.get("kind") in ("induced", "induced_inverse"):
        _check_keys(d, {"kind"}, ctx, ("projection", "source_grid"))
        parse_projection(d["projection"], f"{ctx}.projection")
        d, ctx = d["source_grid"], f"{ctx}.source_grid"
    return parse_grid(d, ctx)


def parse_projection(v, ctx: str) -> Projection:
    """Projection from its descriptor: "orthogonal" or {"center_z_mm": z}."""
    if v == "orthogonal":
        return Projection.orthogonal()
    if isinstance(v, dict):
        _check_keys(v, {"center_z_mm"}, ctx)
        try:
            return Projection.from_center_z(_number(v, "center_z_mm", ctx))
        except ValueError as exc:
            raise ConfigError(f"{ctx}: {exc}") from exc
    raise ConfigError(f"{ctx}: expected \"orthogonal\" or {{\"center_z_mm\": z}}, got {v!r}")


def parse_scene_config(doc: dict) -> SceneConfig:
    _check_keys(doc, {"wavelength", "recording", "deformation", "probe", "analysis"}, "config")
    if "wavelength" not in doc:
        raise ConfigError("config: missing required section 'wavelength'")
    _check_keys(doc["wavelength"], {"lambda_nm"}, "wavelength")
    try:
        lam = Wavelength(_number(doc["wavelength"], "lambda_nm", "wavelength"))
    except ValueError as exc:
        raise ConfigError(f"wavelength: {exc}") from exc

    recording = None
    if "recording" in doc:
        r = doc["recording"]
        _check_keys(r, set(), "recording", ("w1", "w2", "carrier", "grid"))
        recording = RecordingSpec(
            w1=_parse_wave(r["w1"], lam, "recording.w1"),
            w2=_parse_wave(r["w2"], lam, "recording.w2"),
            carrier=parse_profile(r["carrier"], "recording.carrier"),
            grid=parse_grid(r["grid"], "recording.grid"),
        )
        if isinstance(recording.grid, PolarGrid):
            try:
                recording.grid.outer_radius(recording.carrier.domain_radius)
            except ValueError as exc:
                raise ConfigError(f"recording.grid: {exc}") from exc

    deformation = None
    if "deformation" in doc:
        dd = doc["deformation"]
        _check_keys(dd, {"projection", "rescale"}, "deformation", ("target_profile",))
        projection = parse_projection(dd["projection"], "deformation.projection") \
            if "projection" in dd else Projection.orthogonal()
        rescale = _number(dd, "rescale", "deformation") if "rescale" in dd else None
        if rescale is not None and rescale <= 0.0:
            raise ConfigError(f"deformation.rescale: must be > 0, got {rescale}")
        deformation = DeformationSpec(
            target_profile=parse_profile(dd["target_profile"], "deformation.target_profile"),
            projection=projection,
            rescale=rescale,
        )

    probe = _parse_wave(doc["probe"], lam, "probe") if "probe" in doc else None

    analysis = None
    if "analysis" in doc:
        a = doc["analysis"]
        _check_keys(a, {"detector_z_mm", "focal_scan"}, "analysis")
        detectors: Tuple[float, ...] = ()
        if "detector_z_mm" in a:
            v = a["detector_z_mm"]
            if not (isinstance(v, list) and all(_is_finite_number(z) for z in v)):
                raise ConfigError("analysis.detector_z_mm: expected a list of finite numbers")
            detectors = tuple(float(z) for z in v)
        scan = None
        if "focal_scan" in a:
            f = a["focal_scan"]
            _check_keys(f, {"z_min", "z_max", "n"}, "analysis.focal_scan")
            scan = FocalScanSpec(
                _number(f, "z_min", "analysis.focal_scan"),
                _number(f, "z_max", "analysis.focal_scan"),
                _integer(f, "n", "analysis.focal_scan"),
            )
            if not scan.z_min < scan.z_max:
                raise ConfigError("analysis.focal_scan: z_min must be < z_max")
            if scan.n_planes < 3:
                raise ConfigError("analysis.focal_scan: n must be >= 3")
        analysis = AnalysisSpec(detectors, scan)

    return SceneConfig(lam, recording, deformation, probe, analysis)


@contextmanager
def _input_errors(path: Union[str, os.PathLike], what: str) -> Iterator[None]:
    """Map a missing, unreadable or non-UTF-8 input file to a ConfigError naming the ``what`` file."""
    try:
        yield
    except FileNotFoundError as exc:
        raise ConfigError(f"{what} file not found: {path}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{what} file {path} cannot be read: {exc}") from exc


def read_input(path: Union[str, os.PathLike], what: str) -> str:
    """The text of the input file ``path``; a missing or unreadable file is a ConfigError naming the ``what`` file."""
    with _input_errors(path, what), open(path, "r", encoding="utf-8") as fh:
        return fh.read()


# The characters str.splitlines breaks lines at; text read with universal
# newlines holds no "\r".
LINE_BREAKS = frozenset("\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029")
# Characters read_lines decodes per read.
READ_BLOCK_CHARS = 1 << 16


@contextmanager
def read_lines(path: Union[str, os.PathLike], what: str) -> Iterator[Iterator[List[str]]]:
    """The lines of ``read_input(path, what).splitlines()`` in lists of
    ``CHUNK_ROWS`` (the last may be shorter), read ``READ_BLOCK_CHARS`` at a time.

    File errors are read_input's, and so is a decode error anywhere in the
    file when the ``with`` block raises a ConfigError: reading the text whole
    meets the decode error first.
    """
    with _input_errors(path, what):
        fh = open(path, "r", encoding="utf-8")
    with fh:
        chunks = _line_chunks(fh, path, what)
        try:
            yield chunks
        except ConfigError:
            for _ in chunks:
                pass
            raise


def _line_chunks(fh: TextIO, path: Union[str, os.PathLike], what: str) -> Iterator[List[str]]:
    """The lines of ``fh`` in lists of ``CHUNK_ROWS``; a line may span blocks."""
    pending: List[str] = []
    pieces: List[str] = []  # the line that no block read so far has ended
    with _input_errors(path, what):
        while True:
            try:
                block = fh.read(READ_BLOCK_CHARS)
            except UnicodeDecodeError:
                read_input(path, what)  # raises the error naming the byte offset in the file, not in the block
                raise
            if not block:
                break
            lines = block.splitlines()
            ends = block[-1] in LINE_BREAKS
            if pieces and (ends or len(lines) > 1):
                pieces.append(lines[0])
                lines[0] = "".join(pieces)
                pieces = []
            if not ends:
                pieces.append(lines.pop())
            pending += lines
            while len(pending) >= CHUNK_ROWS:
                yield pending[:CHUNK_ROWS]
                del pending[:CHUNK_ROWS]
    if pieces:
        pending.append("".join(pieces))
    if pending:
        yield pending


def load_scene_config(path: Union[str, os.PathLike]) -> SceneConfig:
    try:
        doc = json.loads(read_input(path, "config"))
    except (json.JSONDecodeError, RecursionError) as exc:  # nesting too deep to decode
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    return parse_scene_config(doc)
