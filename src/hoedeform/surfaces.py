"""Rotationally symmetric convex graph surfaces and plane <-> surface projections.

A surface is the graph z = h(s), s = sqrt(x^2 + y^2), of a convex nonnegative
radial profile over a disc of radius ``domain_radius``. Projections map plane
points onto the graph either orthogonally (along z) or centrally through a
point C on the z axis above the vertex; convexity plus rotational symmetry
makes the central projection bijective onto its image.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Optional

from .errors import DomainError, NoIntersection, NoPreimage, NotOnSurface
from .geometry import Vec2, Vec3

# Relative guard band on radial-domain checks; absorbs round-off from
# projection round trips that land on the rim.
DOMAIN_GUARD = 1e-9

# Number of radial samples used by the construction-time profile checks.
_CHECK_SAMPLES = 129

# Iteration cap of the custom-profile projection solve. The root lies in
# [1 - h_max/Cz, 1], where bisection alone reaches one ulp in about 55 steps.
_MAX_ROOT_STEPS = 200


@dataclass(frozen=True)
class SurfaceProfile:
    """Radial profile h(s) of a rotationally symmetric convex graph surface.

    ``radial_height`` maps s (mm) to h (mm); ``radial_slope`` is dh/ds.
    ``kind`` is one of "planar", "sphere_cap", "custom_convex". ``radius``
    is the sphere radius for sphere caps, None otherwise.
    """

    kind: str
    radial_height: Callable[[float], float]
    radial_slope: Callable[[float], float]
    domain_radius: float
    radius: Optional[float] = None

    @classmethod
    def planar(cls, domain_radius: float) -> "SurfaceProfile":
        """The flat profile h = 0 on a disc."""
        if not (math.isfinite(domain_radius) and domain_radius > 0.0):
            raise ValueError("domain_radius must be positive and finite")
        return cls("planar", lambda s: 0.0, lambda s: 0.0, float(domain_radius))

    @classmethod
    def sphere_cap(cls, radius: float, domain_radius: float) -> "SurfaceProfile":
        """Spherical cap h(s) = R - sqrt(R^2 - s^2) with vertex at the origin."""
        if not (math.isfinite(radius) and radius > 0.0):
            raise ValueError("sphere radius must be positive and finite")
        # strict margin keeps slopes finite across the domain guard band
        if not 0.0 < domain_radius <= radius * (1.0 - 1e-6):
            raise ValueError("domain_radius must satisfy 0 < domain_radius <= radius*(1 - 1e-6)")
        r = float(radius)

        def height(s: float) -> float:
            return r - math.sqrt(r * r - s * s)

        def slope(s: float) -> float:
            return s / math.sqrt(r * r - s * s)

        return cls("sphere_cap", height, slope, float(domain_radius), radius=r)

    @classmethod
    def custom_convex(
        cls,
        height: Callable[[float], float],
        domain_radius: float,
        slope: Optional[Callable[[float], float]] = None,
    ) -> "SurfaceProfile":
        """Wrap a user-supplied convex radial height function.

        When ``slope`` is omitted a central finite difference with step
        1e-4 * domain_radius is used (one-sided at the ends). The profile is
        checked on a sample grid for nonnegativity, convexity and, when an
        analytic slope is given, height/slope consistency.
        """
        if not (math.isfinite(domain_radius) and domain_radius > 0.0):
            raise ValueError("domain_radius must be positive and finite")
        d = float(domain_radius)
        step = 1e-4 * d

        if slope is None:
            def slope_fd(s: float) -> float:
                lo = max(0.0, s - step)
                hi = min(d, s + step)
                return (height(hi) - height(lo)) / (hi - lo)

            prof = cls("custom_convex", height, slope_fd, d)
        else:
            prof = cls("custom_convex", height, slope, d)
        _check_profile_samples(prof, check_slope=slope is not None)
        return prof

    def descriptor(self) -> dict:
        """JSON-serializable description (decoded by ``config.parse_profile``);
        custom profiles are not reloadable."""
        if self.kind == "planar":
            return {"kind": "planar", "domain_radius_mm": self.domain_radius}
        if self.kind == "sphere_cap":
            return {"kind": "sphere_cap", "radius_mm": self.radius, "domain_radius_mm": self.domain_radius}
        return {"kind": "custom_convex", "domain_radius_mm": self.domain_radius}

    def require_radius(self, s: float) -> None:
        """Raise DomainError unless 0 <= s <= domain_radius (with guard band)."""
        if not math.isfinite(s) or s < 0.0:
            raise DomainError(f"radial coordinate must be finite and >= 0, got {s}")
        if s > self.domain_radius + DOMAIN_GUARD * max(1.0, self.domain_radius):
            raise DomainError(f"s = {s} outside profile domain (radius {self.domain_radius})")


def _check_profile_samples(profile: SurfaceProfile, check_slope: bool) -> None:
    """Sampled nonnegativity / convexity / slope-consistency guard."""
    d = profile.domain_radius
    n = _CHECK_SAMPLES
    ds = d / (n - 1)
    h = [profile.radial_height(i * ds) for i in range(n)]
    for i, hi in enumerate(h):
        if not math.isfinite(hi):
            raise ValueError(f"height not finite at s = {i * ds}")
        if hi < -1e-12:
            raise ValueError(f"height must be nonnegative, h({i * ds}) = {hi}")
    for i in range(1, n - 1):
        second = h[i - 1] - 2.0 * h[i] + h[i + 1]
        if second < -1e-9:
            raise ValueError(f"profile is not convex near s = {i * ds} (second difference {second})")
    if check_slope:
        step = 1e-4 * d
        for i in range(1, n - 1):
            s = i * ds
            fd = (profile.radial_height(s + step) - profile.radial_height(s - step)) / (2.0 * step)
            m = profile.radial_slope(s)
            if abs(fd - m) > 1e-6 * max(1.0, abs(m)):
                raise ValueError(f"slope inconsistent with height at s = {s}: fd {fd} vs slope {m}")


@dataclass(frozen=True)
class Projection:
    """Plane-to-surface projection: orthogonal (center = None) or through a
    center point C = (0, 0, Cz) on the z axis, Cz > 0."""

    center: Optional[Vec3] = None

    def __post_init__(self):
        c = self.center
        if c is None:
            return
        if c.x != 0.0 or c.y != 0.0:
            raise ValueError("projection center must lie on the z axis")
        # the bijectivity argument needs the center strictly above the plane
        if not c.z > 0.0:
            raise ValueError("projection center must have z > 0")

    @classmethod
    def orthogonal(cls) -> "Projection":
        return cls(center=None)

    @classmethod
    def from_center_z(cls, z_mm: float) -> "Projection":
        return cls(center=Vec3(0.0, 0.0, float(z_mm)))

    @property
    def is_orthogonal(self) -> bool:
        return self.center is None

    def descriptor(self):
        if self.center is None:
            return "orthogonal"
        return {"center_z_mm": self.center.z}


@dataclass(frozen=True)
class LensSpec:
    """Meniscus lens data: index n > 1, positive radii R1, R2 (mm), center
    thickness d >= 0 (mm); surrounding medium is air."""

    n: float
    r1: float
    r2: float
    d: float

    def __post_init__(self):
        if not self.n > 1.0:
            raise ValueError("refractive index must exceed 1")
        if not (self.r1 > 0.0 and self.r2 > 0.0):
            raise ValueError("radii of curvature must be positive")
        if self.d < 0.0:
            raise ValueError("center thickness must be >= 0")


def evaluate(profile: SurfaceProfile, xy: Vec2) -> Vec3:
    """Graph point (x, y, h(|xy|)) above the plane point ``xy``."""
    s = math.hypot(xy.x, xy.y)
    profile.require_radius(s)
    return Vec3(xy.x, xy.y, profile.radial_height(s))


def _sphere_cap_root(cz: float, radius: float, rp: float) -> float:
    """Segment parameter where C + tau*(p - C) meets the lower cap of the sphere.

    With z = (1 - tau)*Cz and s = tau*rp, the sphere s^2 + (z - R)^2 = R^2
    becomes A tau^2 - 2 B tau + c = 0, A = rp^2 + Cz^2, B = Cz (Cz - R),
    c = Cz (Cz - 2R), whose discriminant is B^2 - A c = Cz (Cz R^2 - rp^2 (Cz - 2R)).
    The lower cap is the larger root (B + sqrt(disc))/A, taken as
    c / (B - sqrt(disc)) when B < 0 so that neither form subtracts
    nearly equal numbers.
    """
    b = cz * (cz - radius)
    root = math.sqrt(max(cz * (cz * radius * radius - rp * rp * (cz - 2.0 * radius)), 0.0))
    if b >= 0.0:
        return (b + root) / (rp * rp + cz * cz)
    return cz * (cz - 2.0 * radius) / (b - root)


def _bracketed_root(gap: Callable[[float], float], dgap: Callable[[float], float], hi: float) -> float:
    """Root of ``gap`` in [0, hi] given gap(0) > 0 >= gap(hi).

    Newton steps from ``hi``; a step that leaves the shrinking sign-change
    bracket is replaced by bisection. Stops when a step moves tau by at most
    four ulps.
    """
    lo, tau = 0.0, hi
    for _ in range(_MAX_ROOT_STEPS):
        g = gap(tau)
        if g == 0.0:
            return tau
        if g > 0.0:
            lo = tau
        else:
            hi = tau
        d = dgap(tau)
        nxt = tau - g / d if d != 0.0 else None
        if nxt is None or not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
        if abs(nxt - tau) <= 4.0 * sys.float_info.epsilon * abs(nxt):
            return nxt
        tau = nxt
    return tau


def project(proj: Projection, profile: SurfaceProfile, p: Vec3) -> Vec3:
    """Map the plane point ``p`` (z = 0) onto the graph of ``profile``.

    Orthogonal: (x, y, h(|p|)). Central: the unique intersection of the
    segment from the center C to p with the graph. On a sphere cap it is the
    closed-form line-sphere root; on a custom profile a safeguarded
    Newton-bisection solve on the segment parameter. Either is followed by
    one Newton polish step.

    Raises DomainError if p is not in the plane (or, orthogonally, outside
    the domain) and NoIntersection if the segment misses the graph inside
    its domain.
    """
    if abs(p.z) > 1e-9:
        raise DomainError(f"projection input must lie in the z = 0 plane, got z = {p.z}")
    if proj.is_orthogonal:
        s = math.hypot(p.x, p.y)
        profile.require_radius(s)
        return Vec3(p.x, p.y, profile.radial_height(s))

    cz = proj.center.z
    rp = math.hypot(p.x, p.y)
    h0 = profile.radial_height(0.0)
    if cz - h0 <= 0.0:
        raise NoIntersection(f"projection center z = {cz} is not above the surface vertex (h(0) = {h0})")
    if rp == 0.0:
        return Vec3(0.0, 0.0, h0)

    # Segment r(tau) = C + tau*(p - C): z = (1-tau)*Cz, radial s = tau*rp.
    # The height is clamped at the rim so the bracket may overshoot the
    # domain by the guard band (rim preimages round-trip onto the rim).
    d_dom = profile.domain_radius

    def gap(tau: float) -> float:
        return (1.0 - tau) * cz - profile.radial_height(min(tau * rp, d_dom))

    def dgap(tau: float) -> float:
        return -cz - profile.radial_slope(min(tau * rp, d_dom)) * rp

    tau_hi = min(1.0, (d_dom / rp) * (1.0 + DOMAIN_GUARD))
    g_hi = gap(tau_hi)
    if g_hi > 0.0:
        raise NoIntersection(
            f"segment from center z = {cz} to ({p.x}, {p.y}) leaves the surface domain before meeting the graph"
        )
    if g_hi == 0.0:
        tau = tau_hi
    else:
        if profile.kind == "sphere_cap":
            tau = min(_sphere_cap_root(cz, profile.radius, rp), tau_hi)
        else:
            tau = _bracketed_root(gap, dgap, tau_hi)
        # one Newton step sharpens the root to machine precision
        dg = dgap(tau)
        if dg != 0.0:
            tau_n = tau - gap(tau) / dg
            if 0.0 <= tau_n <= tau_hi:
                tau = tau_n
    return Vec3(tau * p.x, tau * p.y, (1.0 - tau) * cz)


def inverse_project(proj: Projection, profile: SurfaceProfile, q: Vec3) -> Vec3:
    """Plane preimage of a point ``q`` on the graph of ``profile``.

    Orthogonal: drop z. Central: extend the ray center -> q to the plane
    z = 0 (exact formula, no iteration). ``q`` must lie on the graph within
    1e-9 mm, else NotOnSurface.
    """
    s = math.hypot(q.x, q.y)
    if s > profile.domain_radius + DOMAIN_GUARD * max(1.0, profile.domain_radius):
        raise NotOnSurface(f"point radius {s} exceeds surface domain {profile.domain_radius}")
    if abs(q.z - profile.radial_height(s)) > 1e-9:
        raise NotOnSurface(f"point z = {q.z} is not on the graph (expected {profile.radial_height(s)})")
    if proj.is_orthogonal:
        return Vec3(q.x, q.y, 0.0)
    cz = proj.center.z
    denom = cz - q.z
    if abs(denom) <= 1e-12 * max(1.0, abs(cz)):
        raise NoPreimage("ray from the projection center through the point is parallel to the plane")
    t = cz / denom
    if t <= 0.0:
        raise NoPreimage("projection center lies below the surface point; no forward preimage")
    return Vec3(t * q.x, t * q.y, 0.0)


@dataclass(frozen=True)
class BijectivityReport:
    """Outcome of a numeric injectivity scan of a projection."""

    passed: bool
    violation: Optional[str]
    n_lines: int
    samples_per_line: int


def check_bijective(
    proj: Projection,
    profile: SurfaceProfile,
    samples: int = 64,
    azimuths: tuple = (0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi),
) -> BijectivityReport:
    """Scan radial lines and verify the projection hits the graph at strictly
    increasing radii (numeric injectivity check); failures are reported, not
    raised."""
    if samples < 2:
        raise ValueError("need at least 2 samples per radial line")
    d = profile.domain_radius
    if proj.is_orthogonal:
        r_max = d
    else:
        cz = proj.center.z
        h_rim = profile.radial_height(d)
        if cz <= h_rim:
            # rays from a center at or below the rim height never reach the
            # outer surface region: the map cannot be onto the graph
            return BijectivityReport(
                False,
                f"center z = {cz} at or below the rim height {h_rim}: outer surface region has no plane preimage",
                len(azimuths), samples,
            )
        r_max = d * cz / (cz - h_rim)
    tol = 1e-12 * max(1.0, d)
    for phi in azimuths:
        c, s = math.cos(phi), math.sin(phi)
        prev = 0.0
        for i in range(1, samples + 1):
            r = r_max * i / samples
            try:
                q = project(proj, profile, Vec3(r * c, r * s, 0.0))
            except (NoIntersection, DomainError) as exc:
                return BijectivityReport(False, f"phi={phi}, r={r}: {exc}", len(azimuths), samples)
            sq = math.hypot(q.x, q.y)
            if sq <= prev - tol:
                return BijectivityReport(
                    False, f"phi={phi}, r={r}: surface radius {sq} not increasing past {prev}",
                    len(azimuths), samples,
                )
            prev = sq
    return BijectivityReport(True, None, len(azimuths), samples)


def lensmaker_focal(spec: LensSpec) -> float:
    """Focal length (mm) of a thick meniscus lens in air.

    1/f = (n - 1) * (1/R1 - 1/R2 + (n - 1) d / (n R1 R2)); a vanishing
    right-hand side (no optical power) returns float('inf').
    """
    n, r1, r2, d = spec.n, spec.r1, spec.r2, spec.d
    inv_f = (n - 1.0) * (1.0 / r1 - 1.0 / r2 + (n - 1.0) * d / (n * r1 * r2))
    if inv_f == 0.0:
        return math.inf
    return 1.0 / inv_f
