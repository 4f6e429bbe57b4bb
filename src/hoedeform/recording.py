"""HOE models: grating vector fields sampled over a carrier surface.

Recording two coherent waves over a carrier stores, at every sample point,
the grating vector kg = k2 - k1 (rad/um) expressed in the coordinates of the
local surface frame. The frame-coordinate representation is the one the
deformation transport acts on; the world-space vector is derived on demand.

Two recording geometries get dedicated diagnostics here:

* plane/plane recording yields one constant kg regardless of carrier
  curvature (the fringe planes are parallel everywhere);
* diverging/converging spherical recording yields fringe isosurfaces that
  are ellipsoids of revolution around the two source points, with kg
  antiparallel to the outward ellipsoid normal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Tuple, Union

from .errors import PointNotOnEllipsoid, ZeroGrating
from .geometry import Frame, FrameCoords, PolarPoint, Vec2, Vec3, build_frame, frame_decompose, frame_recompose
from .surfaces import DOMAIN_GUARD, SurfaceProfile, evaluate
from .units import path_mm_to_um
from .waves import Wave, WaveKind, local_wavevector, require_same_wavelength

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

    def footprints(self, domain_radius: float) -> list[PolarPoint]:
        s_max = self.s_max if self.s_max is not None else domain_radius
        if s_max > domain_radius * (1.0 + DOMAIN_GUARD):
            raise ValueError(f"grid s_max {s_max} exceeds carrier domain {domain_radius}")
        pts = []
        if self.include_vertex:
            pts.append(PolarPoint(0.0, 0.0))
        for j in range(1, self.n_s + 1):
            s = s_max * j / self.n_s
            for i in range(self.n_phi):
                pts.append(PolarPoint(s, TWO_PI * i / self.n_phi))
        return pts

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

    def footprints(self, domain_radius: float) -> list[PolarPoint]:
        xs = _linspace(-self.half_width, self.half_width, self.n_x)
        ys = _linspace(-self.half_width, self.half_width, self.n_y)
        pts = []
        for y in ys:
            for x in xs:
                if math.hypot(x, y) <= domain_radius:
                    pts.append(PolarPoint.from_xy(x, y))
        return pts

    def descriptor(self) -> dict:
        return {"kind": "cartesian", "n_x": self.n_x, "n_y": self.n_y, "half_width_mm": self.half_width}


GridSpec = Union[PolarGrid, CartesianGrid]


def _linspace(lo: float, hi: float, n: int) -> list[float]:
    if n == 1:
        return [0.5 * (lo + hi)]
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


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


@dataclass(frozen=True)
class GratingVectorField:
    """A carrier surface together with its sampled grating vectors."""

    carrier: SurfaceProfile
    samples: Tuple[GratingSample, ...]
    grid: dict
    wavelength_nm: float

    def __post_init__(self):
        object.__setattr__(self, "samples", tuple(self.samples))
        seen = set()
        for i, smp in enumerate(self.samples):
            key = (smp.footprint.s, smp.footprint.phi)
            if key in seen:
                raise ValueError(f"duplicate sample footprint {key} at index {i}")
            seen.add(key)
            self.carrier.require_radius(smp.footprint.s)
            x, y = smp.footprint.xy()
            on_surface = evaluate(self.carrier, Vec2(x, y))
            if (smp.position - on_surface).norm() > 1e-10:
                raise ValueError(f"sample {i} position {smp.position} off carrier point {on_surface}")
            if abs(smp.magnitude - smp.coords.magnitude()) > 1e-12 * max(1.0, smp.coords.magnitude()):
                raise ValueError(f"sample {i} cached magnitude inconsistent with coords")

    def __len__(self) -> int:
        return len(self.samples)


def record(w1: Wave, w2: Wave, carrier: SurfaceProfile, grid: GridSpec) -> GratingVectorField:
    """Record the interference of ``w1`` and ``w2`` over ``carrier``.

    At each grid footprint p the sample stores kg = k2(r) - k1(r) evaluated
    at r = (p, h(p)) and decomposed in the local frame there. Waves must
    share a wavelength; a spherical source sitting on the carrier raises
    SingularPoint.
    """
    require_same_wavelength(w1, w2)

    def make(p: PolarPoint) -> GratingSample:
        x, y = p.xy()
        pos = evaluate(carrier, Vec2(x, y))
        kg = local_wavevector(w2, pos) - local_wavevector(w1, pos)
        frame = build_frame(carrier, p)
        coords = frame_decompose(kg, frame)
        return GratingSample(p, pos, frame, coords, coords.magnitude())

    samples = tuple(make(p) for p in grid.footprints(carrier.domain_radius))
    return GratingVectorField(carrier, samples, grid.descriptor(), w1.wavelength.lambda_nm)


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
