"""HOE models: grating vector fields sampled over a carrier surface.

Recording two coherent waves over a carrier stores, at every sample point,
the grating vector kg = k2 - k1 (rad/um) expressed in the coordinates of the
local surface frame. The frame-coordinate representation is the one the
deformation transport acts on; the world-space vector is derived on demand.

A field stores its samples as arrays: footprints ``s`` and ``phi`` (N),
world positions ``pos`` and frame coordinates ``g`` (N x 3), 64 bytes per
sample. Frames are recomputed from the carrier's closed form on demand;
``GratingVectorField.samples`` materializes the per-sample objects.

Two recording geometries get dedicated diagnostics here:

* plane/plane recording yields one constant kg regardless of carrier
  curvature (the fringe planes are parallel everywhere);
* diverging/converging spherical recording yields fringe isosurfaces that
  are ellipsoids of revolution around the two source points, with kg
  antiparallel to the outward ellipsoid normal.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import DomainError, HoedeformError, PointNotOnEllipsoid, ZeroGrating, at_sample
from .geometry import (Frame, FrameCoords, PolarPoint, Vec3, dot, first_index, frame_recompose, frames, norms,
                       raise_first)
from .surfaces import DOMAIN_GUARD, SurfaceProfile
from .units import path_mm_to_um
from .waves import Wave, WaveKind, local_wavevector, local_wavevectors, require_same_wavelength

TWO_PI = 2.0 * math.pi


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

    def footprint_arrays(self, domain_radius: float) -> Tuple[np.ndarray, np.ndarray]:
        """Footprints (s, phi): the vertex, then ring by ring outward, azimuths ascending."""
        s_max = self.s_max if self.s_max is not None else domain_radius
        if s_max > domain_radius * (1.0 + DOMAIN_GUARD):
            raise ValueError(f"grid s_max {s_max} exceeds carrier domain {domain_radius}")
        rings = s_max * np.arange(1, self.n_s + 1) / self.n_s
        azimuths = TWO_PI * np.arange(self.n_phi) / self.n_phi
        s = np.repeat(rings, self.n_phi)
        phi = np.tile(azimuths, self.n_s)
        if self.include_vertex:
            s, phi = np.concatenate(([0.0], s)), np.concatenate(([0.0], phi))
        return s, phi

    def footprints(self, domain_radius: float) -> list[PolarPoint]:
        return _points(*self.footprint_arrays(domain_radius))

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

    def footprints(self, domain_radius: float) -> list[PolarPoint]:
        return _points(*self.footprint_arrays(domain_radius))

    def descriptor(self) -> dict:
        return {"kind": "cartesian", "n_x": self.n_x, "n_y": self.n_y, "half_width_mm": self.half_width}


GridSpec = Union[PolarGrid, CartesianGrid]


def _linspace(lo: float, hi: float, n: int) -> np.ndarray:
    if n == 1:
        return np.array([0.5 * (lo + hi)])
    return lo + (hi - lo) * np.arange(n) / (n - 1)


def _points(s: np.ndarray, phi: np.ndarray) -> list[PolarPoint]:
    return [PolarPoint(a, b) for a, b in zip(s.tolist(), phi.tolist())]


@dataclass(frozen=True)
class GratingSample:
    """One sampled point of an HOE microstructure.

    ``footprint`` is the plane parameter point of the carrier graph,
    ``position`` the world point on the carrier, ``coords`` the grating
    vector in the local ``frame`` and ``magnitude`` its cached length.
    """

    footprint: PolarPoint
    position: Vec3
    frame: Frame
    coords: FrameCoords
    magnitude: float

    def kg_world(self) -> Vec3:
        """Grating vector in world coordinates."""
        return frame_recompose(self.coords, self.frame)

    @property
    def is_degenerate(self) -> bool:
        """True for retained kg = 0 samples (diffraction passes probes through)."""
        return self.magnitude == 0.0


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

    @classmethod
    def from_samples(cls, carrier: SurfaceProfile, samples: Sequence[GratingSample], grid: dict,
                     wavelength_nm: float) -> "GratingVectorField":
        """Field of materialized samples (the inverse of :attr:`samples`).

        Each cached magnitude must match its coordinates, and each frame the
        carrier frame at its footprint, which is the only frame a field
        stores.
        """
        samples = tuple(samples)
        for i, smp in enumerate(samples):
            m = smp.coords.magnitude()
            if abs(smp.magnitude - m) > 1e-12 * max(1.0, m):
                raise ValueError(f"sample {i} cached magnitude inconsistent with coords")
        field = cls(
            carrier,
            [smp.footprint.s for smp in samples],
            [smp.footprint.phi for smp in samples],
            np.array([smp.position.as_tuple() for smp in samples]).reshape(-1, 3),
            np.array([(smp.coords.g1, smp.coords.g2, smp.coords.g3) for smp in samples]).reshape(-1, 3),
            grid,
            wavelength_nm,
        )
        given = np.array([smp.frame.t.as_tuple() + smp.frame.b.as_tuple() + smp.frame.n.as_tuple()
                          for smp in samples]).reshape(-1, 9)
        i = first_index(np.abs(given - np.hstack(field.frames())).max(axis=1, initial=0.0) > 1e-12)
        if i is not None:
            raise ValueError(f"sample {i} frame differs from the carrier frame at its footprint")
        return field

    def frames(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Carrier frames {t, b, n} (each N x 3) at the sample footprints."""
        return frames(self.carrier, self.s, self.phi)

    @property
    def magnitudes(self) -> np.ndarray:
        """|kg| of every sample (rad/um)."""
        return norms(self.g)

    @property
    def samples(self) -> Tuple[GratingSample, ...]:
        """The samples as :class:`GratingSample` objects, built on each access."""
        t, b, n = (v.tolist() for v in self.frames())
        return tuple(
            GratingSample(PolarPoint(s, phi), Vec3(*p), Frame(Vec3(*ti), Vec3(*bi), Vec3(*ni)), FrameCoords(*g), m)
            for s, phi, p, ti, bi, ni, g, m in zip(self.s.tolist(), self.phi.tolist(), self.pos.tolist(),
                                                   t, b, n, self.g.tolist(), self.magnitudes.tolist())
        )

    def __len__(self) -> int:
        return self.s.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, GratingVectorField):
            return NotImplemented
        return (self.carrier == other.carrier and self.grid == other.grid
                and self.wavelength_nm == other.wavelength_nm
                and all(np.array_equal(getattr(self, k), getattr(other, k)) for k in ("s", "phi", "pos", "g")))


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


def grating_period(kg: Vec3) -> float:
    """Fringe-plane spacing Lambda = 2*pi/|kg| in um; |kg| = 0 raises ZeroGrating."""
    m = kg.norm()
    if m == 0.0:
        raise ZeroGrating("grating period undefined for |kg| = 0")
    return TWO_PI / m


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

    pts = list(points)
    k = w1.wavelength.k
    phases = []
    max_dev = 0.0
    max_res = 0.0
    for i, r in enumerate(pts):
        d1 = (r - spec.r1).norm()
        d2 = (r - spec.r2).norm()
        dev = abs(d1 + d2 - spec.distance_sum)
        if dev > 1e-9 * spec.distance_sum:
            raise PointNotOnEllipsoid(
                f"point {i} at {r.as_tuple()}: distance sum {d1 + d2} vs required {spec.distance_sum}"
            )
        max_dev = max(max_dev, dev)
        phases.append(k * path_mm_to_um(d1 + d2))
        kg = local_wavevector(w2, r) - local_wavevector(w1, r)
        u_sum = (r - spec.r1) / d1 + (r - spec.r2) / d2
        denom = kg.norm() * u_sum.norm()
        if denom > 1e-300:
            max_res = max(max_res, kg.cross(u_sum).norm() / denom)
    spread = (max(phases) - min(phases)) if phases else 0.0
    return IsosurfaceReport(len(pts), max_dev, spread, max_res)
