"""Batch harness: field tracing, detector-plane hits and focal scans.

A traced field yields one ray per sample (origin at the sample, direction
along the diffracted wavevector, weight = efficiency); evanescent samples
are kept in the trace with no ray. Spot metrics on z = const detector
planes quantify focusing and astigmatism: the z positions minimizing the
x and y RMS spot sizes are located separately, and their gap is the
astigmatism measure.

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

from .config import read_input
from .errors import ConfigError, EmptyBundle, NoMinimumInRange, at_sample
from .fieldio import format_column
from .geometry import Vec3, first_index, norms
from .diffraction import (EVANESCENT, MODES, STATUSES, DiffractionResult, DiffractionStatus, EfficiencyHook,
                          diffract)
from .recording import GratingVectorField, sample_context
from .waves import Wave, local_wavevectors

# Unit ray directions with |dz| at or below this never reach a z plane.
PARALLEL_TOL = 1e-12


@dataclass(frozen=True)
class Ray:
    """Propagation ray: origin (mm), unit direction, efficiency weight."""

    origin: Vec3
    direction: Vec3
    weight: float = 1.0

    def __post_init__(self):
        if abs(self.direction.norm() - 1.0) > 1e-12:
            raise ValueError(f"ray direction must be unit length, |d| = {self.direction.norm()!r}")
        if not 0.0 <= self.weight <= 1.0:
            raise ValueError(f"ray weight must be in [0, 1], got {self.weight}")


def _read_only(*arrays: np.ndarray) -> Tuple[np.ndarray, ...]:
    """The arrays, made read-only: rays built from their rows must keep matching them."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _view_ray(arrays: Tuple[np.ndarray, np.ndarray], weights: np.ndarray, row: int) -> Ray:
    """The Ray of one row of (origins, directions) arrays. It remembers the
    arrays and the row, so that a list of such rays converts back to arrays
    by gathering rows (see ``_ray_arrays``)."""
    ray = Ray(Vec3(*arrays[0][row].tolist()), Vec3(*arrays[1][row].tolist()), float(weights[row]))
    object.__setattr__(ray, "_row", (arrays, row))
    return ray


class RayBundle(abc.Sequence):
    """Rays as arrays: origins and unit directions (N x 3) and weights (N).

    The arrays are authoritative and made read-only; indexing builds a
    :class:`Ray`.
    """

    __slots__ = ("origins", "directions", "weights", "_arrays")

    def __init__(self, origins: np.ndarray, directions: np.ndarray, weights: np.ndarray):
        self.origins, self.directions, self.weights = _read_only(origins, directions, weights)
        self._arrays = (origins, directions)

    def __len__(self) -> int:
        return self.weights.shape[0]

    def __getitem__(self, i):
        if isinstance(i, slice):
            return RayBundle(self.origins[i], self.directions[i], self.weights[i])
        return _view_ray(self._arrays, self.weights, range(len(self))[i])

    def __eq__(self, other) -> bool:  # equal to any sequence of equal rays, in order
        return isinstance(other, abc.Sequence) and len(self) == len(other) and all(map(operator.eq, self, other))

    __hash__ = None


class TraceRecord:
    """Per-sample trace outcome, a view of one row of a :class:`Trace`.

    ``ray`` is None for evanescent samples; it is built on first access and
    kept. The other attributes are built on every access.
    """

    __slots__ = ("_trace", "_row", "_ray")

    def __init__(self, trace: "Trace", row: int):
        self._trace, self._row, self._ray = trace, row, False

    @property
    def index(self) -> int:
        return int(self._trace.index[self._row])

    @property
    def position(self) -> Vec3:
        return Vec3(*self._trace.pos[self._row].tolist())

    @property
    def status(self) -> DiffractionStatus:
        return STATUSES[self._trace.status[self._row]]

    @property
    def ray(self) -> Optional[Ray]:
        if self._ray is False:
            tr, i = self._trace, self._row
            self._ray = None if tr.status[i] == EVANESCENT else _view_ray(tr._arrays, tr.eta, i)
        return self._ray

    @property
    def result(self) -> DiffractionResult:
        tr, i = self._trace, self._row
        kd = None if tr.status[i] == EVANESCENT else Vec3(*tr.kd[i].tolist())
        return DiffractionResult(kd, self.status, float(tr.mismatch[i]), float(tr.eta[i]))


class Trace(abc.Sequence):
    """The trace of a field, one row per sample, held as arrays.

    ``index``, footprint ``s`` and ``phi``, position ``pos``, diffracted
    wavevector ``kd`` and unit ``direction`` (N x 3, zero rows where
    evanescent), ``status`` codes (``diffraction.STATUSES``), Bragg
    ``mismatch`` and efficiency ``eta``. The arrays are authoritative and
    read-only; indexing and iteration yield :class:`TraceRecord` views.
    """

    __slots__ = ("index", "s", "phi", "pos", "kd", "direction", "status", "mismatch", "eta", "_arrays")

    def __init__(self, index, s, phi, pos, kd, direction, status, mismatch, eta):
        self.index, self.s, self.phi, self.pos, self.kd, self.direction, self.status, self.mismatch, self.eta = (
            _read_only(index, s, phi, pos, kd, direction, status, mismatch, eta))
        self._arrays = (pos, direction)

    def __len__(self) -> int:
        return self.status.shape[0]

    def __getitem__(self, i):
        n = len(self)
        if not -n <= i < n:
            raise IndexError("trace index out of range")
        return TraceRecord(self, i % n)

    def __iter__(self):
        return (TraceRecord(self, i) for i in range(len(self)))

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

    ``efficiency``, when given, is called with each materialized sample.
    Errors name the first failing sample.
    """
    if mode not in MODES:
        raise ValueError(f"unknown closure mode {mode!r}; expected one of {MODES}")
    n = len(field)
    if efficiency is None:
        eta = np.ones(n)
    else:
        eta = np.array([float(efficiency(smp, probe)) for smp in field.samples], dtype=float).reshape(n)
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
    return Trace(np.arange(n), field.s, field.phi, field.pos, kd, direction, status, mismatch, eta)


_ORIGIN_DIRECTION = operator.attrgetter("origin.x", "origin.y", "origin.z", "direction.x", "direction.y", "direction.z")
_ROW = operator.attrgetter("_row")


def _ray_arrays(rays: Sequence[Ray]) -> Tuple[np.ndarray, np.ndarray]:
    """Origins and directions (N x 3) of ``rays``.

    Rays that all come from the rows of one trace or bundle are gathered
    from its arrays; other rays are read one by one.
    """
    if isinstance(rays, RayBundle):
        return rays.origins, rays.directions
    try:
        rows = list(map(_ROW, rays))
    except AttributeError:
        rows = []
    if rows:
        arrays = rows[0][0]
        if all(map(operator.is_, map(operator.itemgetter(0), rows), repeat(arrays))):
            index = np.fromiter(map(operator.itemgetter(1), rows), np.intp, len(rows))
            return arrays[0][index], arrays[1][index]
    flat = np.fromiter(chain.from_iterable(map(_ORIGIN_DIRECTION, rays)), float, 6 * len(rays)).reshape(-1, 6)
    return flat[:, :3], flat[:, 3:]


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
    "%s,%s,%.17g,%.17g,%.17g,%.0s,%.0s,%.0s,evanescent,0%.0s" if status is DiffractionStatus.EVANESCENT
    else "%s,%s,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g," + status.value + ",%s"
    for status in STATUSES
)


def write_rays_csv(trace: Trace, path) -> None:
    """Write rays.csv, one row per sample, formatted from the trace arrays."""
    template = "\n".join([_RAY_ROWS[code] for code in trace.status.tolist()])
    columns = (format_column(trace.s, "%.17g"), format_column(trace.phi, "%.17g"), *trace.pos.T.tolist(),
               *trace.direction.T.tolist(), format_column(trace.eta, "%.17g"))
    rows = template % tuple(chain.from_iterable(zip(*columns)))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(RAYS_HEADER + "\n" + (rows + "\n" if rows else ""))


_STATUS_CODES = {status.value: code for code, status in enumerate(STATUSES)}
_RAY_NUMBERS = operator.itemgetter(2, 3, 4, 5, 6, 7, 9)  # x, y, z, dx, dy, dz and weight


def _float_or_nan(text: str) -> float:
    try:
        return float(text)
    except ValueError:  # a nan fails the finiteness check, and the row's error names the text
        return math.nan


def read_rays_csv(path) -> RayBundle:
    """Rays (propagating and pass-through rows) from a rays.csv file.

    Every row needs a known status; evanescent rows, and only they, have an
    empty direction and yield no ray. All rows are checked at once; the first
    malformed one is a ConfigError naming its line, which for a bad number
    carries the error of the :class:`Ray` built from that row alone.
    """
    lines = read_input(path, "rays").splitlines()
    if not lines or lines[0] != RAYS_HEADER:
        raise ConfigError(f"rays file {path} missing header {RAYS_HEADER!r}")
    rows = [line.split(",") for line in lines[1:]]
    code = np.array([_STATUS_CODES.get(parts[8], -1) if len(parts) == 10 else -1 for parts in rows], dtype=np.intp)
    live = (code >= 0) & (code != EVANESCENT)
    bad = (code < 0) | (live == np.array([parts[5:8] == ["", "", ""] for parts in rows], dtype=bool))
    numbers = chain.from_iterable(map(_RAY_NUMBERS, compress(rows, live)))
    values = np.array([_float_or_nan(v) for v in numbers], dtype=float).reshape(-1, 7)
    origins, directions, weights = values[:, :3], values[:, 3:6], values[:, 6]
    with np.errstate(over="ignore"):  # |d| overflows to inf, as in float math
        bad[live] |= ~(np.isfinite(values[:, :6]).all(axis=1) & (np.abs(norms(directions) - 1.0) <= 1e-12)
                       & (weights >= 0.0) & (weights <= 1.0))
    i = first_index(bad)
    if i is not None:
        parts, where = rows[i], f"rays file {path} line {i + 2}"
        if len(parts) != 10:
            raise ConfigError(f"{where}: expected 10 fields, got {len(parts)}")
        if code[i] < 0:
            raise ConfigError(f"{where}: unknown status {parts[8]!r}")
        if code[i] == EVANESCENT or parts[5:8] == ["", "", ""]:
            raise ConfigError(f"{where}: the direction must be empty exactly on evanescent rows")
        try:
            Ray(Vec3(*map(float, parts[2:5])), Vec3(*map(float, parts[5:8])), float(parts[9]))
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
    return RayBundle(origins, directions, weights)


def write_hits_csv(plane_hits: Sequence[PlaneHits], path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(HITS_HEADER + "\n")
        for ph in plane_hits:
            row = "%.17g" % ph.z0 + ",%.17g,%.17g,%d\n"
            fh.write((row * ph.index.size) % tuple(np.column_stack((ph.xy, ph.index)).ravel().tolist()))


def write_spots_csv(reports: Sequence[SpotReport], path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(SPOTS_HEADER + "\n")
        fh.writelines("%.17g,%.17g,%.17g,%.17g,%.17g,%.17g\n" % (r.z, r.cx, r.cy, r.rms_x, r.rms_y, r.rms_total)
                      for r in reports)
