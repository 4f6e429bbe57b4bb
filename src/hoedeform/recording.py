"""HOE models: grating vector fields sampled over a carrier surface.

Recording two coherent waves over a carrier stores, at every sample point,
the grating vector kg = k2 - k1 (rad/um) expressed in the coordinates of the
local surface frame. The frame-coordinate representation is the one the
deformation transport acts on; the world-space vector is derived on demand.

A field stores its samples as arrays: footprints ``s`` and ``phi`` (N),
world positions ``pos`` and frame coordinates ``g`` (N x 3), 64 bytes per
sample. Frames are recomputed from the carrier's closed form on demand.
Fields are only ever built from arrays. Iterating ``field.samples`` builds
per-sample :class:`GratingSample` records ``CHUNK_ROWS`` rows at a time;
they remain only for the benchmark harness in ``perfbench/``.

Two recording geometries get dedicated diagnostics here:

* plane/plane recording yields one constant kg regardless of carrier
  curvature (the fringe planes are parallel everywhere);
* diverging/converging spherical recording yields fringe isosurfaces that
  are ellipsoids of revolution around the two source points, with kg
  antiparallel to the outward ellipsoid normal.
"""

from __future__ import annotations

import contextlib
import operator
from collections import abc
from dataclasses import dataclass
from typing import Iterable, Optional, Tuple, Union

import numpy as np

from .errors import DomainError, HoedeformError, PointNotOnEllipsoid, at_sample
from .geometry import TWO_PI, Vec3, cross, dot, first_index, frames, norms, raise_first
from .surfaces import DOMAIN_GUARD, SurfaceProfile
from .units import path_mm_to_um
from .waves import Wave, WaveKind, local_wavevectors, require_same_wavelength

# Rows per chunk wherever per-sample records or text rows are built from
# arrays, so that their transient memory does not grow with the sample count.
CHUNK_ROWS = 512


@dataclass(frozen=True)
class PolarGrid:
    """Polar sampling lattice: n_s rings times n_phi azimuths, plus an
    optional single vertex sample at s = 0."""

    n_s: int
    n_phi: int
    s_max: Optional[float] = None
    include_vertex: bool = True

    def __post_init__(self):
        if self.n_s < 1 or self.n_phi < 1:
            raise ValueError("polar grid needs n_s >= 1 and n_phi >= 1")
        if self.s_max is not None and not self.s_max > 0.0:
            raise ValueError("s_max must be positive")

    def outer_radius(self, domain_radius: float) -> float:
        """Radius of the outermost ring on a carrier of ``domain_radius``;
        an s_max beyond that domain raises ValueError."""
        s_max = self.s_max if self.s_max is not None else domain_radius
        if s_max > domain_radius * (1.0 + DOMAIN_GUARD):
            raise ValueError(f"grid s_max {s_max} exceeds carrier domain {domain_radius}")
        return s_max

    def footprint_arrays(self, domain_radius: float) -> Tuple[np.ndarray, np.ndarray]:
        """Footprints (s, phi): the vertex, then ring by ring outward, azimuths ascending."""
        s_max = self.outer_radius(domain_radius)
        rings = s_max * np.arange(1, self.n_s + 1) / self.n_s
        azimuths = TWO_PI * np.arange(self.n_phi) / self.n_phi
        s = np.repeat(rings, self.n_phi)
        phi = np.tile(azimuths, self.n_s)
        if self.include_vertex:
            s, phi = np.concatenate(([0.0], s)), np.concatenate(([0.0], phi))
        return s, phi

    def descriptor(self) -> dict:
        return {
            "kind": "polar",
            "n_s": self.n_s,
            "n_phi": self.n_phi,
            "s_max_mm": self.s_max,
            "include_vertex": self.include_vertex,
        }


@dataclass(frozen=True)
class CartesianGrid:
    """Cartesian lattice over [-w, w]^2; points outside the carrier disc are skipped."""

    n_x: int
    n_y: int
    half_width: float

    def __post_init__(self):
        if self.n_x < 1 or self.n_y < 1:
            raise ValueError("cartesian grid needs n_x >= 1 and n_y >= 1")
        if not self.half_width > 0.0:
            raise ValueError("half_width must be positive")

    def footprint_arrays(self, domain_radius: float) -> Tuple[np.ndarray, np.ndarray]:
        """Footprints (s, phi) of the lattice points inside the disc, rows of constant y ascending."""
        xs = _linspace(-self.half_width, self.half_width, self.n_x)
        ys = _linspace(-self.half_width, self.half_width, self.n_y)
        x, y = np.tile(xs, ys.size), np.repeat(ys, xs.size)
        r = np.hypot(x, y)
        inside = r <= domain_radius
        return r[inside], np.mod(np.arctan2(y[inside], x[inside]), TWO_PI)

    def descriptor(self) -> dict:
        return {"kind": "cartesian", "n_x": self.n_x, "n_y": self.n_y, "half_width_mm": self.half_width}


GridSpec = Union[PolarGrid, CartesianGrid]


def _linspace(lo: float, hi: float, n: int) -> np.ndarray:
    if n == 1:
        return np.array([0.5 * (lo + hi)])
    return lo + (hi - lo) * np.arange(n) / (n - 1)


@dataclass(frozen=True, slots=True)
class GratingSample:
    """One sampled point of an HOE microstructure, a view of one field row.

    ``s`` and ``phi`` are the footprint on the carrier graph, ``position``
    the world point on the carrier, ``t``, ``b`` and ``n`` the carrier frame
    there, ``coords`` the grating vector coordinates (g1, g2, g3) in that
    frame and ``magnitude`` their length.
    """

    s: float
    phi: float
    position: Vec3
    t: Vec3
    b: Vec3
    n: Vec3
    coords: Tuple[float, float, float]
    magnitude: float

    def kg_world(self) -> Vec3:
        """Grating vector in world coordinates, g1*t + g2*b + g3*n."""
        g1, g2, g3 = self.coords
        return self.t * g1 + self.b * g2 + self.n * g3


def _column(a, width: Optional[int]) -> np.ndarray:
    """``a`` as a read-only float array of N entries or N x ``width`` rows;
    read-only float arrays (another field's) are shared, anything else copied."""
    if not (isinstance(a, np.ndarray) and a.dtype == np.float64 and not a.flags.writeable):
        a = np.array(a, dtype=float)
        a.flags.writeable = False
    if a.ndim == 0 or a.shape[1:] != (() if width is None else (width,)):
        raise ValueError(f"field arrays must be N or N x 3, got shape {a.shape}")
    return a


@dataclass(frozen=True, eq=False)
class GratingVectorField:
    """A carrier surface together with its sampled grating vectors.

    Sample i has the footprint (s[i], phi[i]) on the carrier, the world
    position pos[i] and the grating vector coordinates g[i] in the carrier
    frame there. The arrays are read-only; construction checks every sample
    (finite values, 0 <= phi < 2*pi, distinct footprints inside the carrier
    domain, positions on the carrier, orthonormal frames) and names the
    first failing one.
    """

    carrier: SurfaceProfile
    s: np.ndarray
    phi: np.ndarray
    pos: np.ndarray
    g: np.ndarray
    grid: dict
    wavelength_nm: float

    def __post_init__(self):
        for name, width in (("s", None), ("phi", None), ("pos", 3), ("g", 3)):
            object.__setattr__(self, name, _column(getattr(self, name), width))
        if not self.s.shape[0] == self.phi.shape[0] == self.pos.shape[0] == self.g.shape[0]:
            raise ValueError("field arrays s, phi, pos and g must have one row per sample")
        with sample_context(self.s, self.phi):
            self._validate()

    def _validate(self) -> None:
        s, phi, pos, g = self.s, self.phi, self.pos, self.g
        finite = np.isfinite(s) & np.isfinite(phi) & np.isfinite(pos).all(axis=1) & np.isfinite(g).all(axis=1)
        raise_first([
            (~finite, lambda i: at_sample(ValueError("footprint, position and coordinates must be finite"), i)),
            (s < 0.0, lambda i: at_sample(ValueError(f"radial distance must be >= 0, got {float(s[i])}"), i)),
            (~((phi >= 0.0) & (phi < TWO_PI)), lambda i: at_sample(
                ValueError(f"azimuth must lie in [0, 2*pi), got {float(phi[i])}"), i)),
        ])
        limit = self.carrier.radius_limit
        x, y = s * np.cos(phi), s * np.sin(phi)
        on_surface = np.column_stack((x, y, self.carrier.heights(np.minimum(np.hypot(x, y), limit))))
        with np.errstate(over="ignore"):  # a far-off position overflows to inf, which fails the check
            off = norms(pos - on_surface)
        raise_first([
            (_duplicates(s, phi), lambda i: at_sample(
                ValueError(f"duplicate sample footprint {(float(s[i]), float(phi[i]))} at index {i}"), i)),
            (s > limit, lambda i: at_sample(DomainError(
                f"s = {float(s[i])} outside profile domain (radius {self.carrier.domain_radius})"), i)),
            (off > 1e-10, lambda i: at_sample(ValueError(
                f"position {tuple(pos[i].tolist())} off carrier point {tuple(on_surface[i].tolist())}"), i)),
        ])
        self.frames()

    def frames(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Carrier frames {t, b, n} (each N x 3) at the sample footprints."""
        return frames(self.carrier, self.s, self.phi)

    @property
    def magnitudes(self) -> np.ndarray:
        """|kg| of every sample (rad/um)."""
        return norms(self.g)

    @property
    def samples(self) -> "FieldSamples":
        """The samples' :class:`GratingSample` records, built as they are iterated."""
        return FieldSamples(self)

    def __len__(self) -> int:
        return self.s.shape[0]


class FieldSamples:
    """The :class:`GratingSample` records of a field, built from its arrays
    ``CHUNK_ROWS`` at a time as they are iterated. Equal to any sequence of
    equal records, in order."""

    __slots__ = ("_field",)

    def __init__(self, field: GratingVectorField):
        self._field = field

    def __len__(self) -> int:
        return len(self._field)

    def __iter__(self):
        for lo in range(0, len(self), CHUNK_ROWS):
            yield from self._records(slice(lo, lo + CHUNK_ROWS))

    def __eq__(self, other) -> bool:
        return (isinstance(other, (abc.Sequence, FieldSamples)) and len(self) == len(other)
                and all(map(operator.eq, self, other)))

    def _records(self, rows: slice) -> list:
        """The records of the rows ``rows`` of the field."""
        f = self._field
        s, phi, g = f.s[rows], f.phi[rows], f.g[rows]
        t, b, n = (v.tolist() for v in frames(f.carrier, s, phi))
        return [GratingSample(si, pi, Vec3(*p), Vec3(*ti), Vec3(*bi), Vec3(*ni), tuple(gi), m)
                for si, pi, p, ti, bi, ni, gi, m in zip(s.tolist(), phi.tolist(), f.pos[rows].tolist(),
                                                        t, b, n, g.tolist(), norms(g).tolist())]


@contextlib.contextmanager
def sample_context(s: np.ndarray, phi: np.ndarray):
    """Re-raise an error that an array check tagged with a sample index with
    that sample's footprint in the message, ``sample i (s=..., phi=...): ...``."""
    try:
        yield
    except (ValueError, HoedeformError) as exc:
        i = getattr(exc, "index", None)
        if i is None:
            raise
        raise type(exc)(f"sample {i} (s={float(s[i])}, phi={float(phi[i])}): {exc}") from exc


def hook_values(values, n: int, hook: str) -> np.ndarray:
    """The values a hook returned for a field of ``n`` samples, as a new float
    array; anything but ``n`` values, one per sample, raises ValueError."""
    v = np.array(values, dtype=float)
    if v.shape != (n,):
        raise ValueError(f"{hook} must return {n} values, one per sample, got shape {v.shape}")
    return v


def _duplicates(s: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """True at every footprint that repeats an earlier one."""
    order = np.lexsort((phi, s))
    same = (s[order][1:] == s[order][:-1]) & (phi[order][1:] == phi[order][:-1])
    mask = np.zeros(s.shape, dtype=bool)
    mask[order[1:][same]] = True
    return mask


def record(w1: Wave, w2: Wave, carrier: SurfaceProfile, grid: GridSpec) -> GratingVectorField:
    """Record the interference of ``w1`` and ``w2`` over ``carrier``.

    At each grid footprint p the sample stores kg = k2(r) - k1(r) evaluated
    at r = (p, h(p)) and decomposed in the local frame there. Waves must
    share a wavelength; a spherical source sitting on the carrier raises
    SingularPoint.
    """
    require_same_wavelength(w1, w2)
    s, phi = grid.footprint_arrays(carrier.domain_radius)
    x, y = s * np.cos(phi), s * np.sin(phi)
    r = np.hypot(x, y)
    with sample_context(s, phi):
        carrier.require_radii(r)
        pos = np.column_stack((x, y, carrier.heights(r)))
        kg = local_wavevectors(w2, pos) - local_wavevectors(w1, pos)
        t, b, n = frames(carrier, s, phi)
    g = np.column_stack((dot(kg, t), dot(kg, b), dot(kg, n)))
    return GratingVectorField(carrier, s, phi, pos, g, grid.descriptor(), w1.wavelength.lambda_nm)


@dataclass(frozen=True)
class BraggIsosurfaceSpec:
    """Ellipsoid of revolution: foci r1, r2 and constant distance sum (mm)."""

    r1: Vec3
    r2: Vec3
    distance_sum: float

    def __post_init__(self):
        if not self.distance_sum > (self.r1 - self.r2).norm():
            raise ValueError("distance_sum must exceed the focal separation")


@dataclass(frozen=True)
class IsosurfaceReport:
    """Constancy / collinearity diagnostics over probe points on one ellipsoid."""

    n_points: int
    max_sum_deviation_mm: float
    max_phase_spread_rad: float
    max_collinearity_residual: float


def check_isosurface(
    w1: Wave,
    w2: Wave,
    spec: BraggIsosurfaceSpec,
    points: Iterable[Vec3],
) -> IsosurfaceReport:
    """Verify fringe-isosurface structure of a diverging/converging recording.

    Each probe point must sit on the ellipsoid |r - r1| + |r - r2| =
    distance_sum within 1e-9 relative (else PointNotOnEllipsoid). The report
    carries the spread of the interference phase argument across the points
    and the worst relative residual of kg x (u1 + u2), u1/u2 being the unit
    vectors from the foci (their sum is the outward normal direction).
    """
    if w1.kind is not WaveKind.SPHERICAL_DIVERGING or w2.kind is not WaveKind.SPHERICAL_CONVERGING:
        raise ValueError("isosurface check expects a diverging w1 and a converging w2")
    require_same_wavelength(w1, w2)
    if w1.point != spec.r1 or w2.point != spec.r2:
        raise ValueError("spec foci must match the wave source/target points")

    pts = np.array([r.as_tuple() for r in points], dtype=float).reshape(-1, 3)
    to_r1, to_r2 = pts - np.array(spec.r1.as_tuple()), pts - np.array(spec.r2.as_tuple())
    with np.errstate(over="ignore"):  # as in float math, a far-off point is at distance inf
        d1, d2 = norms(to_r1), norms(to_r2)
    dev = np.abs(d1 + d2 - spec.distance_sum)
    i = first_index(dev > 1e-9 * spec.distance_sum)
    if i is not None:
        raise PointNotOnEllipsoid(f"point {i} at {tuple(pts[i].tolist())}: distance sum {float(d1[i] + d2[i])} "
                                  f"vs required {spec.distance_sum}")
    kg = local_wavevectors(w2, pts) - local_wavevectors(w1, pts)
    u_sum = to_r1 / d1[:, None] + to_r2 / d2[:, None]
    denom = norms(kg) * norms(u_sum)
    res = np.divide(norms(cross(kg, u_sum)), denom, out=np.zeros_like(denom), where=denom > 1e-300)
    spread = float(np.ptp(w1.wavelength.k * path_mm_to_um(d1 + d2))) if len(pts) else 0.0
    return IsosurfaceReport(len(pts), float(dev.max(initial=0.0)), spread, float(res.max(initial=0.0)))
