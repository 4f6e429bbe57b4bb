"""Rotationally symmetric convex graph surfaces and plane <-> surface projections.

A surface is the graph z = h(s), s = sqrt(x^2 + y^2), of a convex nonnegative
radial profile over a disc of radius ``domain_radius``. Projections map plane
points onto the graph either orthogonally (along z) or centrally through a
point C on the z axis above the vertex; convexity plus rotational symmetry
makes the central projection bijective onto its image.

Profiles and projections work on arrays: radii for the profile heights
and slopes, N x 3 rows of points for :func:`project_points` and
:func:`inverse_project_points`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, NoIntersection, NoPreimage, NotOnSurface, at_sample
from .geometry import Vec3, raise_first

# Relative guard band on radial-domain checks; absorbs round-off from
# projection round trips that land on the rim.
DOMAIN_GUARD = 1e-9

# Number of radial samples used by the construction-time profile checks.
_CHECK_SAMPLES = 129

# Iteration cap of the custom-profile projection solve. The root lies in
# [1 - h_max/Cz, 1], where bisection alone reaches one ulp in about 55 steps.
_MAX_ROOT_STEPS = 200


def _sqrt(x):
    """np.sqrt that raises ValueError on a negative radicand, like math.sqrt."""
    if np.any(x < 0.0):
        raise ValueError("math domain error")
    return np.sqrt(x)


def _cap_height(r: float, s):
    return r - _sqrt(r * r - s * s)


def _cap_slope(r: float, s):
    return s / _sqrt(r * r - s * s)


def _mapped(fn: Callable[[float], float], s: np.ndarray) -> np.ndarray:
    """A scalar profile callable applied to every entry of ``s``."""
    return np.array([fn(v) for v in s.ravel().tolist()], dtype=float).reshape(s.shape)


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
            return float(_cap_height(r, s))

        def slope(s: float) -> float:
            return float(_cap_slope(r, s))

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

    def heights(self, s: np.ndarray) -> np.ndarray:
        """h at every radius in ``s``: closed form for planar and sphere-cap
        profiles, the scalar callable mapped over ``s`` for custom ones."""
        s = np.asarray(s, dtype=float)
        if self.kind == "planar":
            return np.zeros_like(s)
        if self.kind == "sphere_cap":
            return _cap_height(self.radius, s)
        return _mapped(self.radial_height, s)

    def slopes(self, s: np.ndarray) -> np.ndarray:
        """dh/ds at every radius in ``s``, like :meth:`heights`."""
        s = np.asarray(s, dtype=float)
        if self.kind == "planar":
            return np.zeros_like(s)
        if self.kind == "sphere_cap":
            return _cap_slope(self.radius, s)
        return _mapped(self.radial_slope, s)

    @property
    def radius_limit(self) -> float:
        """Largest radius inside the domain: domain_radius plus the guard band."""
        return self.domain_radius + DOMAIN_GUARD * max(1.0, self.domain_radius)

    def radius_checks(self, s: np.ndarray) -> list:
        """The domain checks of the radii ``s`` (0 <= s <= domain_radius, with
        guard band) as :func:`geometry.raise_first` checks raising DomainError."""
        return [
            (~(np.isfinite(s) & (s >= 0.0)), lambda i: at_sample(
                DomainError(f"radial coordinate must be finite and >= 0, got {float(s[i])}"), i)),
            (s > self.radius_limit, lambda i: at_sample(
                DomainError(f"s = {float(s[i])} outside profile domain (radius {self.domain_radius})"), i)),
        ]

    def require_radii(self, s: np.ndarray) -> None:
        """Raise DomainError, tagged with the first failing index, unless every radius is in the domain."""
        raise_first(self.radius_checks(s))


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


def _sphere_cap_roots(cz: float, radius: float, rp: np.ndarray) -> np.ndarray:
    """Segment parameters where C + tau*(p - C) meets the lower cap of the sphere.

    With z = (1 - tau)*Cz and s = tau*rp, the sphere s^2 + (z - R)^2 = R^2
    becomes A tau^2 - 2 B tau + c = 0, A = rp^2 + Cz^2, B = Cz (Cz - R),
    c = Cz (Cz - 2R), whose discriminant is B^2 - A c = Cz (Cz R^2 - rp^2 (Cz - 2R)).
    The lower cap is the larger root (B + sqrt(disc))/A, taken as
    c / (B - sqrt(disc)) when B < 0 so that neither form subtracts
    nearly equal numbers. Lengths are in units of max(Cz, R), so no
    square of a distant center overflows. A row with rp beyond that scale
    solves for tau*rp instead, the quadratic divided by rp^2, which squares
    f = scale/rp, not rp or rp/scale (which overflows for a scale below 1);
    on nearer rows f = 1 and u = rp/scale give the plain quadratic.
    """
    scale = max(cz, radius)
    cz, radius = cz / scale, radius / scale
    b = cz * (cz - radius)
    f, u = scale / np.maximum(rp, scale), np.minimum(rp, scale) / scale
    root = np.sqrt(np.maximum(cz * (cz * radius * radius * f * f - u * u * (cz - 2.0 * radius)), 0.0))
    if b >= 0.0:
        return f * (b * f + root) / (u * u + (cz * f) * (cz * f))
    return f * (cz * (cz - 2.0 * radius) / (b * f - root))


def _bracketed_roots(gap: Callable[[np.ndarray, np.ndarray], np.ndarray],
                     step: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray], hi: np.ndarray) -> np.ndarray:
    """Roots of ``gap`` in [0, hi] given gap(0) > 0 >= gap(hi), one per entry of ``hi``.

    ``gap(tau, rows)`` and the Newton step ``step(tau, rows, gap)`` evaluate
    the rows still being solved. Newton steps from ``hi``; a step that leaves
    the shrinking sign-change bracket (or is 0) is replaced by bisection. A
    row stops when a step moves its tau by at most four ulps.
    """
    hi = hi.copy()
    lo = np.zeros_like(hi)
    tau = hi.copy()
    rows = np.arange(hi.size)
    for _ in range(_MAX_ROOT_STEPS):
        if rows.size == 0:
            break
        t = tau[rows]
        g = gap(t, rows)
        above = g > 0.0
        lo[rows[above]] = t[above]
        hi[rows[~above]] = t[~above]
        nxt = t - step(t, rows, g)
        bisect = ~((lo[rows] < nxt) & (nxt < hi[rows]))
        nxt[bisect] = 0.5 * (lo[rows][bisect] + hi[rows][bisect])
        exact = g == 0.0
        nxt[exact] = t[exact]
        tau[rows] = nxt
        rows = rows[~(exact | (np.abs(nxt - t) <= 4.0 * sys.float_info.epsilon * np.abs(nxt)))]
    return tau


def _finite_points(p: np.ndarray):
    return ~np.isfinite(p).all(axis=1), lambda i: at_sample(
        ValueError(f"point coordinates must be finite, got {tuple(p[i].tolist())}"), i)


def _in_plane(p: np.ndarray):
    return ~(np.abs(p[:, 2]) <= 1e-9), lambda i: at_sample(
        DomainError(f"projection input must lie in the z = 0 plane, got z = {float(p[i, 2])}"), i)


def project_points(proj: Projection, profile: SurfaceProfile, p: np.ndarray) -> np.ndarray:
    """Map the plane points ``p`` (N x 3, z = 0) onto the graph of ``profile``.

    Orthogonal: (x, y, h(|p|)). Central: the unique intersection of the
    segment from the center C to p with the graph. On a sphere cap it is the
    closed-form line-sphere root; on other profiles a safeguarded
    Newton-bisection solve on the segment parameter. Either is followed by
    one Newton polish step. The point is placed on the graph at the solved
    radius, z = h(tau*|p|): the segment's own (1 - tau)*Cz would lose about
    eps*Cz to rounding, which puts points off the carrier for distant centers.

    Raises DomainError if a point is not in the plane (or, orthogonally,
    outside the domain) and NoIntersection if a segment misses the graph
    inside its domain, tagged with the first failing row.
    """
    x, y = p[:, 0], p[:, 1]
    rp = np.hypot(x, y)
    raise_first([_finite_points(p)])
    off_plane = _in_plane(p)
    if proj.is_orthogonal:
        raise_first([off_plane, *profile.radius_checks(rp)])
        return np.column_stack((x, y, profile.heights(rp)))

    cz = proj.center.z
    h0 = float(profile.heights(np.zeros(1))[0])
    if cz - h0 <= 0.0 and p.shape[0]:
        if off_plane[0][0]:
            raise off_plane[1](0)
        raise at_sample(NoIntersection(
            f"projection center z = {cz} is not above the surface vertex (h(0) = {h0})"), 0)

    # Segment r(tau) = C + tau*(p - C): z = (1-tau)*Cz, radial s = tau*rp.
    # The height is clamped at the rim so the bracket may overshoot the
    # domain by the guard band (rim preimages round-trip onto the rim).
    d_dom = profile.domain_radius
    axis = rp == 0.0
    rp_safe = np.where(axis, 1.0, rp)

    def gap(tau, rows):
        return (1.0 - tau) * cz - profile.heights(np.minimum(tau * rp_safe[rows], d_dom))

    # gap' = -Cz - h'*rp overflows for rp near the float range, so it is
    # evaluated divided by k, a power of two (exact) that is 1 below rp = 2^511
    k = np.ldexp(1.0, np.maximum(np.frexp(rp_safe)[1] - 511, 0))

    def step(tau, rows, g):  # the Newton step g / gap'(tau), 0 where gap' = 0
        kr = k[rows]
        d = -cz / kr - profile.slopes(np.minimum(tau * rp_safe[rows], d_dom)) * (rp_safe[rows] / kr)
        with np.errstate(over="ignore"):  # an overflowing step leaves the bracket, and the polish skips it
            return np.divide(g, d, out=np.zeros_like(g), where=d != 0.0) / kr

    every = np.arange(rp.size)
    tau_hi = np.minimum(1.0, (d_dom / rp_safe) * (1.0 + DOMAIN_GUARD))
    g_hi = gap(tau_hi, every)
    raise_first([off_plane, (~axis & (g_hi > 0.0), lambda i: at_sample(NoIntersection(
        f"segment from center z = {cz} to ({float(x[i])}, {float(y[i])}) leaves the surface domain "
        "before meeting the graph"), i))])

    solve = ~axis & (g_hi != 0.0)
    tau = tau_hi.copy()
    rows = every[solve]
    if rows.size:
        if profile.kind == "sphere_cap":
            t0 = np.minimum(_sphere_cap_roots(cz, profile.radius, rp[rows]), tau_hi[rows])
        else:
            t0 = _bracketed_roots(lambda t, sub: gap(t, rows[sub]), lambda t, sub, g: step(t, rows[sub], g),
                                  tau_hi[rows])
        # one Newton step sharpens the root to machine precision
        t_n = t0 - step(t0, rows, gap(t0, rows))
        polish = (t_n >= 0.0) & (t_n <= tau_hi[rows])
        tau[rows] = np.where(polish, t_n, t0)
    q = np.column_stack((tau * x, tau * y, profile.heights(tau * rp)))
    q[axis] = (0.0, 0.0, h0)
    return q


def inverse_project_points(proj: Projection, profile: SurfaceProfile, q: np.ndarray) -> np.ndarray:
    """Plane preimages (N x 3) of the points ``q`` on the graph of ``profile``.

    Orthogonal: drop z. Central: extend the ray center -> q to the plane
    z = 0 (exact formula, no iteration). Every q must lie on the graph
    within 1e-9 mm, else NotOnSurface; a ray that cannot reach the plane
    forward is NoPreimage. Errors are tagged with the first failing row.
    """
    raise_first([_finite_points(q)])
    s = np.hypot(q[:, 0], q[:, 1])
    outside = s > profile.radius_limit
    h = profile.heights(np.where(outside, 0.0, s))
    checks = [
        (outside, lambda i: at_sample(NotOnSurface(
            f"point radius {float(s[i])} exceeds surface domain {profile.domain_radius}"), i)),
        (np.abs(q[:, 2] - h) > 1e-9, lambda i: at_sample(NotOnSurface(
            f"point z = {float(q[i, 2])} is not on the graph (expected {float(h[i])})"), i)),
    ]
    if proj.is_orthogonal:
        raise_first(checks)
        return np.column_stack((q[:, 0], q[:, 1], np.zeros_like(s)))
    cz = proj.center.z
    denom = cz - q[:, 2]
    parallel = np.abs(denom) <= 1e-12 * max(1.0, abs(cz))
    t = np.divide(cz, denom, out=np.zeros_like(denom), where=~parallel)
    raise_first(checks + [
        (parallel, lambda i: at_sample(
            NoPreimage("ray from the projection center through the point is parallel to the plane"), i)),
        (t <= 0.0, lambda i: at_sample(
            NoPreimage("projection center lies below the surface point; no forward preimage"), i)),
    ])
    return np.column_stack((t * q[:, 0], t * q[:, 1], np.zeros_like(s)))
