"""Batch harness: field tracing, detector-plane hits and focal scans.

A traced field yields one ray per sample (origin at the sample, direction
along the diffracted wavevector, weight = efficiency); evanescent samples
are kept in the trace with no ray. Spot metrics on z = const detector
planes quantify focusing and astigmatism: the z positions minimizing the
x and y RMS spot sizes are located separately, and their gap is the
astigmatism measure.

A :class:`Trace` and a :class:`RayBundle` hold arrays; the row views that
iterating them yields (:class:`TraceRecord`, :class:`Ray`) remain only for
the benchmark harness in ``perfbench/``.

CSV emission is deterministic: fixed sample ordering, decimal values with
17 significant digits, LF newlines.
"""

from __future__ import annotations

import math
import operator
from collections import abc
from itertools import chain, compress, repeat
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .config import read_lines
from .errors import ConfigError, EmptyBundle, NoMinimumInRange, at_sample
from .fieldio import format_column, write_rows
from .geometry import TWO_PI, Vec3, first_index, norms, raise_first
from .diffraction import (EVANESCENT, MODES, STATUSES, DiffractionResult, DiffractionStatus, EfficiencyHook,
                          diffract)
from .recording import CHUNK_ROWS, GratingVectorField, hook_values, sample_context
from .waves import Wave, local_wavevectors

# Unit ray directions with |dz| at or below this never reach a z plane.
PARALLEL_TOL = 1e-12


class Ray:
    """Propagation ray, a view of row ``row`` of (origins, directions,
    weights) arrays: origin (mm), unit direction and efficiency weight, read
    on access. A :class:`Trace` or :class:`RayBundle` yields them."""

    __slots__ = ("_arrays", "_row")

    def __init__(self, arrays: Tuple[np.ndarray, np.ndarray, np.ndarray], row: int):
        self._arrays, self._row = arrays, row

    @property
    def origin(self) -> Vec3:
        return Vec3(*self._arrays[0][self._row].tolist())

    @property
    def direction(self) -> Vec3:
        return Vec3(*self._arrays[1][self._row].tolist())

    @property
    def weight(self) -> float:
        return float(self._arrays[2][self._row])

    def _values(self) -> Tuple[float, ...]:
        o, d, w = self._arrays
        return (*o[self._row].tolist(), *d[self._row].tolist(), float(w[self._row]))

    def __eq__(self, other):
        return self._values() == other._values() if other.__class__ is Ray else NotImplemented


def _read_only(*arrays: np.ndarray) -> Tuple[np.ndarray, ...]:
    """The arrays, made read-only: rays built from their rows must keep matching them."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _ray_checks(origins: np.ndarray, directions: np.ndarray, weights: np.ndarray) -> list:
    """The rules of a ray as ``geometry.raise_first`` checks of the rows, in
    the order they are reported: a finite origin, a finite direction,
    |d| = 1 within 1e-12 and a weight in [0, 1]."""
    with np.errstate(over="ignore"):  # |d| overflows to inf, as in float math
        length = norms(directions)
    return [
        (~np.isfinite(origins).all(axis=1),
         lambda i: ValueError(f"Vec3 components must be finite, got {tuple(origins[i].tolist())}")),
        (~np.isfinite(directions).all(axis=1),
         lambda i: ValueError(f"Vec3 components must be finite, got {tuple(directions[i].tolist())}")),
        (~(np.abs(length - 1.0) <= 1e-12),
         lambda i: ValueError(f"ray direction must be unit length, |d| = {float(length[i])!r}")),
        (~((weights >= 0.0) & (weights <= 1.0)),
         lambda i: ValueError(f"ray weight must be in [0, 1], got {float(weights[i])}")),
    ]


class RayBundle:
    """Rays as arrays: origins and unit directions (N x 3) and weights (N).

    The arrays are checked by ``_ray_checks`` (the first failing row raises)
    and made read-only; iteration yields :class:`Ray` views of the rows.
    """

    __slots__ = ("origins", "directions", "weights", "_arrays")

    def __init__(self, origins: np.ndarray, directions: np.ndarray, weights: np.ndarray):
        raise_first(_ray_checks(origins, directions, weights))
        self._arrays = _read_only(origins, directions, weights)
        self.origins, self.directions, self.weights = self._arrays

    def __len__(self) -> int:
        return self.weights.shape[0]

    def __iter__(self):
        return map(Ray, repeat(self._arrays), range(len(self)))

    def __eq__(self, other) -> bool:  # equal to any sequence of equal rays, in order
        return (isinstance(other, (abc.Sequence, RayBundle)) and len(self) == len(other)
                and all(map(operator.eq, self, other)))


class TraceRecord:
    """Per-sample trace outcome, a view of row ``index`` of a :class:`Trace`.

    ``ray`` is None for evanescent samples; it is built on first access and
    kept. The other attributes are built on every access.
    """

    __slots__ = ("_trace", "index", "_code", "_ray")

    def __init__(self, trace: "Trace", index: int, code: int):
        self._trace, self.index, self._code = trace, index, code
        self._ray = None if code == EVANESCENT else False

    @property
    def position(self) -> Vec3:
        return Vec3(*self._trace.pos[self.index].tolist())

    @property
    def status(self) -> DiffractionStatus:
        return STATUSES[self._code]

    @property
    def ray(self) -> Optional[Ray]:
        if self._ray is False:
            self._ray = Ray(self._trace._arrays, self.index)
        return self._ray

    @property
    def result(self) -> DiffractionResult:
        tr, i = self._trace, self.index
        kd = None if self._code == EVANESCENT else Vec3(*tr.kd[i].tolist())
        return DiffractionResult(kd, self.status, float(tr.mismatch[i]), float(tr.eta[i]))


class Trace:
    """The trace of a field, one row per sample, held as arrays.

    Footprint ``s`` and ``phi``, position ``pos``, diffracted wavevector
    ``kd`` and unit ``direction`` (N x 3, zero rows where evanescent),
    ``status`` codes (``diffraction.STATUSES``), Bragg ``mismatch`` and
    efficiency ``eta``. The arrays are authoritative and read-only;
    iteration yields :class:`TraceRecord` views.
    """

    __slots__ = ("s", "phi", "pos", "kd", "direction", "status", "mismatch", "eta", "_arrays")

    def __init__(self, s, phi, pos, kd, direction, status, mismatch, eta):
        self.s, self.phi, self.pos, self.kd, self.direction, self.status, self.mismatch, self.eta = (
            _read_only(s, phi, pos, kd, direction, status, mismatch, eta))
        self._arrays = (pos, direction, eta)

    def __len__(self) -> int:
        return self.status.shape[0]

    def __iter__(self):
        return map(TraceRecord, repeat(self), range(len(self)), self.status.tolist())

    def rays(self) -> RayBundle:
        """The rays of the non-evanescent rows, in order."""
        keep = self.status != EVANESCENT
        return RayBundle(self.pos[keep], self.direction[keep], self.eta[keep])

    def counts(self) -> Dict[str, int]:
        """Number of rows per status value, every status listed."""
        per_code = np.bincount(self.status, minlength=len(STATUSES)).tolist()
        return {status.value: per_code[code] for code, status in enumerate(STATUSES)}


def trace_field(
    field: GratingVectorField,
    probe: Wave,
    mode: str = "energy",
    efficiency: Optional[EfficiencyHook] = None,
) -> Trace:
    """Diffract ``probe`` at every sample of ``field`` and emit rays.

    ``efficiency``, when given, is called once as ``efficiency(field, probe)``
    and returns the N efficiencies in [0, 1], one per sample in field order.
    Errors name the first failing sample.
    """
    if mode not in MODES:
        raise ValueError(f"unknown closure mode {mode!r}; expected one of {MODES}")
    n = len(field)
    eta = np.ones(n) if efficiency is None else hook_values(efficiency(field, probe), n, "efficiency")
    with sample_context(field.s, field.phi):
        i = first_index(~((eta >= 0.0) & (eta <= 1.0)))
        if i is not None:
            raise at_sample(ValueError(f"efficiency must be in [0, 1], got {float(eta[i])}"), i)
        kp = local_wavevectors(probe, field.pos)
        kd, status, mismatch = diffract(kp, field.g, *field.frames(), mode)
        live = status != EVANESCENT
        with np.errstate(over="ignore"):  # |kd| overflows to inf, as in float math; the unit check rejects it
            length = norms(kd)
        i = first_index(live & (length < 1e-300))
        if i is not None:
            raise at_sample(ValueError("cannot normalize a zero vector"), i)
        direction = kd / np.where(live, length, 1.0)[:, None]
        unit = norms(direction)
        i = first_index(live & ~(np.abs(unit - 1.0) <= 1e-12))
        if i is not None:
            raise at_sample(ValueError(f"ray direction must be unit length, |d| = {float(unit[i])!r}"), i)
    return Trace(field.s, field.phi, field.pos, kd, direction, status, mismatch, eta)


_ARRAYS, _ROW = operator.attrgetter("_arrays"), operator.attrgetter("_row")


def _ray_arrays(rays: Sequence[Ray]) -> Tuple[np.ndarray, np.ndarray]:
    """Origins and directions (N x 3) of ``rays``, gathered from the arrays
    they are rows of: one index when all come from one trace or bundle,
    else stacked row by row."""
    if isinstance(rays, RayBundle):
        return rays.origins, rays.directions
    arrays = list(map(_ARRAYS, rays))
    rows = np.fromiter(map(_ROW, rays), np.intp, len(arrays))
    if arrays and all(map(operator.is_, arrays, repeat(arrays[0]))):
        return arrays[0][0][rows], arrays[0][1][rows]
    return tuple(np.array([a[k][i] for a, i in zip(arrays, rows.tolist())]).reshape(-1, 3) for k in (0, 1))


@dataclass(frozen=True, eq=False)
class PlaneHits:
    """Intersections of a ray bundle with the plane z = z0.

    ``index`` (ascending) and ``xy`` (N x 2) hold the rays that hit the plane
    and where; rays parallel to the plane or intersecting it backward are
    flagged by index instead.
    """

    z0: float
    index: np.ndarray
    xy: np.ndarray
    parallel: Tuple[int, ...]
    behind: Tuple[int, ...]

    @property
    def hits(self) -> Tuple[Tuple[int, Tuple[float, float]], ...]:
        """(ray index, (x, y)) pairs, built from the arrays."""
        return tuple(zip(self.index.tolist(), map(tuple, self.xy.tolist())))


def intersect_plane(rays: Sequence[Ray], z0: float) -> PlaneHits:
    """Forward intersections origin + t*direction with z = z0 (t > 0 required)."""
    o, d = _ray_arrays(rays)
    dz = d[:, 2]
    parallel = np.abs(dz) <= PARALLEL_TOL
    # far-off rays overflow to inf here and fail the finiteness check below
    with np.errstate(over="ignore", invalid="ignore"):
        t = np.divide(z0 - o[:, 2], dz, out=np.zeros_like(dz), where=~parallel)
        behind = ~parallel & (t <= 0.0)
        hit = ~(parallel | behind)
        x, y = (o[:, 0] + t * d[:, 0])[hit], (o[:, 1] + t * d[:, 1])[hit]
    index = np.flatnonzero(hit)
    i = first_index(~(np.isfinite(x) & np.isfinite(y)))
    if i is not None:
        raise at_sample(ValueError(f"hit point must be finite, got ({float(x[i])}, {float(y[i])})"), int(index[i]))
    return PlaneHits(z0, index, np.column_stack((x, y)), tuple(np.flatnonzero(parallel).tolist()),
                     tuple(np.flatnonzero(behind).tolist()))


@dataclass(frozen=True)
class SpotReport:
    """Centroid (cx, cy) and RMS spot radii of a bundle cross-section at z (mm)."""

    z: float
    cx: float
    cy: float
    rms_x: float
    rms_y: float
    rms_total: float


@dataclass(frozen=True)
class FocalScanResult:
    """Spot reports over a z range plus the located RMS minima.

    ``z_min_rms_*`` are the scan planes with the smallest RMS spot sizes;
    ``bracketed_*`` report whether each is interior to the scan range (a
    boundary minimum means the true focus may lie outside). ``z_star_*``
    are the exact minima of the RMS curves, wherever they lie, or None when
    the ray slopes do not vary along that axis (the spot size is constant).
    """

    reports: Tuple[SpotReport, ...]
    z_min_rms_x: float
    z_min_rms_y: float
    z_min_rms_total: float
    astigmatism_mm: float
    bracketed_x: bool
    bracketed_y: bool
    bracketed_total: bool
    plane_spacing: float
    n_rays_used: int
    n_rays_excluded: int
    z_star_x: Optional[float]
    z_star_y: Optional[float]
    z_star_total: Optional[float]


def _variance_curve(ac: np.ndarray, bc: np.ndarray, z: np.ndarray) -> Tuple[np.ndarray, Optional[float]]:
    """Spot variance mean((ac + bc*z)^2) on the planes ``z`` and its exact minimum.

    ``ac`` and ``bc`` are centred intercepts and slopes (rays x columns; the
    columns add up). The quadratic is expanded around its minimum z*, clamped
    to the scan range, so the focus itself is computed without cancellation.
    z* is None when every slope is the same.
    """
    var_b = float(np.mean(bc * bc, axis=0).sum())
    z_star = -float(np.mean(ac * bc, axis=0).sum()) / var_b if var_b > 0.0 else None
    z_e = 0.0 if z_star is None else min(max(z_star, float(z[0])), float(z[-1]))
    u = ac + bc * z_e
    m0 = float(np.mean(u * u, axis=0).sum())
    c1 = float(np.mean(u * bc, axis=0).sum())
    dz = z - z_e
    return np.maximum(m0 + 2.0 * dz * c1 + dz * dz * var_b, 0.0), z_star


def focal_scan(rays: Sequence[Ray], z_range: Tuple[float, float], n_planes: int) -> FocalScanResult:
    """Spot sizes on n_planes detector planes across z_range and their minima.

    Each ray crosses the plane z at (x, y) = a + b*z, so the centroid is
    affine in z and the spot variance per axis is a quadratic in z, computed
    from the moments of the centred a and b (no per-plane projection). The
    planes are z_min + spacing*i; the reported minima are the planes with the
    smallest RMS sizes, and ``z_star_*`` the exact minima of the quadratics.

    Rays must propagate toward +z with the whole range forward of their
    origins; rays with dz <= 0 (or parallel) are excluded and counted.
    Raises EmptyBundle (< 2 usable rays) and NoMinimumInRange when the total
    RMS has no interior minimum (flat or monotone across the range).
    """
    z_lo, z_hi = float(z_range[0]), float(z_range[1])
    if not (z_lo < z_hi):
        raise ValueError(f"invalid z range [{z_lo}, {z_hi}]")
    if n_planes < 3:
        raise ValueError("focal scan needs at least 3 planes")
    o, d = _ray_arrays(rays)
    usable = d[:, 2] > PARALLEL_TOL
    o, d = o[usable], d[usable]
    n_used = o.shape[0]
    if n_used < 2:
        raise EmptyBundle(f"focal scan needs >= 2 forward rays, got {n_used}")
    max_oz = float(o[:, 2].max())
    if z_lo <= max_oz:
        raise ValueError(f"scan range must start forward of all ray origins (z_min {z_lo} <= origin z {max_oz})")

    spacing = (z_hi - z_lo) / (n_planes - 1)
    z = z_lo + spacing * np.arange(n_planes, dtype=float)
    # rays far out of scale overflow the moments: a numeric error, not nan spots
    with np.errstate(over="raise", invalid="raise"):
        b = d[:, :2] / d[:, 2:]
        a = o[:, :2] - o[:, 2:] * b
        a_mean, b_mean = a.mean(axis=0), b.mean(axis=0)
        ac, bc = a - a_mean, b - b_mean
        # identical slopes centre to exactly zero, so a parallel bundle has no z*
        bc[:, b.min(axis=0) == b.max(axis=0)] = 0.0
        var_x, zs_x = _variance_curve(ac[:, :1], bc[:, :1], z)
        var_y, zs_y = _variance_curve(ac[:, 1:], bc[:, 1:], z)
        _, zs_t = _variance_curve(ac, bc, z)
        rms_x, rms_y, rms_t = np.sqrt(var_x), np.sqrt(var_y), np.sqrt(var_x + var_y)
        cx, cy = a_mean[0] + b_mean[0] * z, a_mean[1] + b_mean[1] * z
    reports = tuple(
        SpotReport(zi, xi, yi, rx, ry, rt)
        for zi, xi, yi, rx, ry, rt in zip(z.tolist(), cx.tolist(), cy.tolist(),
                                           rms_x.tolist(), rms_y.tolist(), rms_t.tolist())
    )
    ix, iy, it = int(np.argmin(rms_x)), int(np.argmin(rms_y)), int(np.argmin(rms_t))

    top = float(rms_t.max())
    flat = top - float(rms_t.min()) <= 1e-12 * max(1e-300, top)
    interior = 0 < it < n_planes - 1
    if flat or not interior:
        raise NoMinimumInRange(
            f"total RMS spot size has no interior minimum in [{z_lo}, {z_hi}]"
            + (" (constant bundle width)" if flat else "")
        )
    return FocalScanResult(
        reports=reports,
        z_min_rms_x=reports[ix].z,
        z_min_rms_y=reports[iy].z,
        z_min_rms_total=reports[it].z,
        astigmatism_mm=abs(reports[ix].z - reports[iy].z),
        bracketed_x=0 < ix < n_planes - 1,
        bracketed_y=0 < iy < n_planes - 1,
        bracketed_total=interior,
        plane_spacing=spacing,
        n_rays_used=n_used,
        n_rays_excluded=len(rays) - n_used,
        z_star_x=zs_x,
        z_star_y=zs_y,
        z_star_total=zs_t,
    )


# ---------------------------------------------------------------------------
# deterministic CSV emission / parsing
# ---------------------------------------------------------------------------

RAYS_HEADER = "s,phi,x,y,z,dx,dy,dz,status,weight"
HITS_HEADER = "z0,x,y,ray_index"
SPOTS_HEADER = "z,cx,cy,rms_x,rms_y,rms_total"


# One row template per status code, each consuming the same nine values: s,
# phi and weight preformatted (they repeat), x, y, z, dx, dy, dz as floats.
# "%.0s" consumes a value and prints nothing, which leaves the direction of
# evanescent rows empty and their weight 0.
_RAY_ROWS = tuple(
    "%s,%s,%.17g,%.17g,%.17g,%.0s,%.0s,%.0s,evanescent,0%.0s\n" if status is DiffractionStatus.EVANESCENT
    else "%s,%s,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g," + status.value + ",%s\n"
    for status in STATUSES
)


def write_rays_csv(trace: Trace, path) -> None:
    """Write rays.csv, one row per sample, formatted from the trace arrays."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(RAYS_HEADER + "\n")
        write_rows(fh, [_RAY_ROWS[code] for code in trace.status.tolist()],
                   (format_column(trace.s, "%.17g"), format_column(trace.phi, "%.17g"), *trace.pos.T,
                    *trace.direction.T, format_column(trace.eta, "%.17g")))


_STATUS_CODES = {status.value: code for code, status in enumerate(STATUSES)}


def _float_or_nan(text: str) -> float:
    try:
        return float(text)
    except ValueError:  # a nan fails the row's checks, and the row's error names the text
        return math.nan


def _parse_column(cells: Sequence[str], repeats: bool) -> np.ndarray:
    """The cells as floats, an empty or malformed cell as nan; with ``repeats``
    each distinct text is parsed once."""
    texts = list(dict.fromkeys(cells)) if repeats else cells
    try:
        values = [float(v) if v else math.nan for v in texts]
    except ValueError:
        values = [_float_or_nan(v) for v in texts]
    if repeats:
        values = list(map(dict(zip(texts, values)).__getitem__, cells))
    return np.array(values, dtype=float)


def _row_error(where: str, parts: list, code: int) -> ConfigError:
    """The error of a malformed rays.csv row, checked as one row."""
    if len(parts) != 10:
        return ConfigError(f"{where}: expected 10 fields, got {len(parts)}")
    if code < 0:
        return ConfigError(f"{where}: unknown status {parts[8]!r}")
    if (code == EVANESCENT) != (parts[5:8] == ["", "", ""]):
        return ConfigError(f"{where}: the direction must be empty exactly on evanescent rows")
    cells = (parts[2:5], parts[5:8], parts[9:10], [])
    checks = _ray_checks(*(np.array([[_float_or_nan(v) for v in c]]) for c in cells[:2]),
                         np.array([_float_or_nan(parts[9])]))
    try:
        # each group of cells parses (float's error) just before the next rule; the weight before |d| = 1
        for group, (mask, make) in zip(cells, checks if code != EVANESCENT else checks[:1]):
            list(map(float, group))
            if mask[0]:
                raise make(0)
        if code == EVANESCENT and float(parts[9]) != 0.0:
            raise ValueError(f"evanescent rows must have weight 0, got {parts[9]}")
        s, phi = float(parts[0]), float(parts[1])
        if not (math.isfinite(s) and s >= 0.0):
            raise ValueError(f"s must be finite and >= 0, got {parts[0]}")
        if not 0.0 <= phi < TWO_PI:
            raise ValueError(f"phi must lie in [0, 2*pi), got {parts[1]}")
    except ValueError as exc:
        return ConfigError(f"{where}: {exc}")
    raise AssertionError(f"{where}: row flagged as malformed passes its checks")


def read_rays_csv(path) -> RayBundle:
    """Rays (propagating and pass-through rows) from a rays.csv file.

    Every row needs a known status and finite numbers, s >= 0 and
    0 <= phi < 2*pi; evanescent rows, and only they, have an empty direction
    and weight 0, and yield no ray. The lines are those ``str.splitlines``
    gives; the file is read a block at a time and its rows are parsed and
    checked ``CHUNK_ROWS`` at a time, so a read holds one chunk of the file,
    never all of it. The first malformed row is a ConfigError naming its
    line, which for a bad ray carries the error of the first ray rule
    (``_ray_checks``) that row breaks; a file that is not UTF-8 is
    read_input's ConfigError.
    """
    with read_lines(path, "rays") as chunks:
        first = next(chunks, [])
        if not first or first[0] != RAYS_HEADER:
            raise ConfigError(f"rays file {path} missing header {RAYS_HEADER!r}")
        kept, lo = [np.empty((0, 7))], 1
        for lines in chain([first[1:]], chunks):
            rows = [line.split(",") for line in lines]
            code = np.array([_STATUS_CODES.get(p[8], -1) if len(p) == 10 else -1 for p in rows], dtype=np.intp)
            bad = (code < 0) | ((code == EVANESCENT) != np.array([p[5:8] == ["", "", ""] for p in rows], dtype=bool))
            ok = ~bad
            columns = list(zip(*compress(rows, ok))) or [()] * 10
            values = np.column_stack([_parse_column(columns[k], k in (0, 1, 9)) for k in (0, 1, 2, 3, 4, 5, 6, 7, 9)])
            s, phi, pos, weights = values[:, 0], values[:, 1], values[:, 2:5], values[:, 8]
            live = code[ok] != EVANESCENT
            checks = _ray_checks(pos, values[:, 5:8], weights)  # an evanescent row keeps the origin rule
            bad[ok] |= (np.where(live, np.logical_or.reduce([m for m, _ in checks]), checks[0][0] | (weights != 0.0))
                        | ~(np.isfinite(s) & (s >= 0.0) & (phi >= 0.0) & (phi < TWO_PI)))
            i = first_index(bad)
            if i is not None:
                raise _row_error(f"rays file {path} line {lo + i + 1}", rows[i], int(code[i]))
            kept.append(values[live, 2:])
            lo += len(lines)
    values = np.concatenate(kept)
    return RayBundle(values[:, :3], values[:, 3:6], values[:, 6])


def write_hits_csv(plane_hits: Sequence[PlaneHits], path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(HITS_HEADER + "\n")
        for ph in plane_hits:
            write_rows(fh, "%.17g" % ph.z0 + ",%.17g,%.17g,%d\n", (*ph.xy.T, ph.index))


def write_spots_csv(reports: Sequence[SpotReport], path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(SPOTS_HEADER + "\n")
        fh.writelines("%.17g,%.17g,%.17g,%.17g,%.17g,%.17g\n" % (r.z, r.cx, r.cy, r.rms_x, r.rms_y, r.rms_total)
                      for r in reports)
