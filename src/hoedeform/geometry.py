"""Vector algebra, polar coordinates and local surface frames.

Frames attached to a rotationally symmetric graph z = h(s) follow the
radial-curve construction: ``t`` is the unit tangent of the radial section
curve through the point, ``n`` the unit graph normal with negative z
component, and ``b = t x n``. The triple is orthonormal and satisfies
``t .(b x n) = -1``; because every consumer decomposes a vector in a frame
and recomposes it in a frame built the same way, the orientation choice
cancels downstream.

At the surface vertex (s = 0) the radial direction is taken as the limit
along the azimuth, ``t -> (cos phi, sin phi, 0)``, which exists for
differentiable rotationally symmetric profiles.

Fields compute frames for all their samples at once with :func:`frames`,
on arrays of N x 3 rows. :class:`Frame`, :class:`FrameCoords` and
:func:`frame_recompose` describe one sample of a field as a view (see
``GratingVectorField.samples``); no pipeline stage builds them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, Sequence, Tuple

import numpy as np

from .errors import DegenerateFrame, at_sample

if TYPE_CHECKING:  # only for annotations; surfaces imports this module
    from .surfaces import SurfaceProfile

TWO_PI = 2.0 * math.pi

# Default absolute tolerance for unit-length / orthogonality validation.
DEFAULT_TOL = 1e-12


@dataclass(frozen=True, slots=True)
class Vec3:
    """3-vector with finite components (mm for positions, rad/um for wavevectors)."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y) and math.isfinite(self.z)):
            raise ValueError(f"Vec3 components must be finite, got ({self.x}, {self.y}, {self.z})")

    def __add__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x - other.x, self.y - other.y, self.z - other.z)

    def __neg__(self) -> "Vec3":
        return Vec3(-self.x, -self.y, -self.z)

    def __mul__(self, a: float) -> "Vec3":
        return Vec3(self.x * a, self.y * a, self.z * a)

    __rmul__ = __mul__

    def __truediv__(self, a: float) -> "Vec3":
        return Vec3(self.x / a, self.y / a, self.z / a)

    def dot(self, other: "Vec3") -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def cross(self, other: "Vec3") -> "Vec3":
        return Vec3(
            self.y * other.z - self.z * other.y,
            self.z * other.x - self.x * other.z,
            self.x * other.y - self.y * other.x,
        )

    def norm(self) -> float:
        return math.sqrt(self.dot(self))

    def normalized(self) -> "Vec3":
        n = self.norm()
        if n < 1e-300:
            raise ValueError("cannot normalize a zero vector")
        return self / n

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.z)


@dataclass(frozen=True, slots=True)
class Vec2:
    """2-vector in the reference plane or on a detector plane (mm)."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"Vec2 components must be finite, got ({self.x}, {self.y})")


@dataclass(frozen=True, slots=True)
class PolarPoint:
    """Plane point in polar coordinates: radius s >= 0 (mm), azimuth phi in [0, 2*pi)."""

    s: float
    phi: float

    def __post_init__(self):
        if not (math.isfinite(self.s) and math.isfinite(self.phi)):
            raise ValueError("PolarPoint components must be finite")
        if self.s < 0.0:
            raise ValueError(f"radial distance must be >= 0, got {self.s}")
        wrapped = self.phi % TWO_PI
        if wrapped != self.phi:
            object.__setattr__(self, "phi", wrapped)


@dataclass(frozen=True, slots=True)
class Frame:
    """Orthonormal local basis {t, b, n} at a surface point.

    Validated to be orthonormal within ``DEFAULT_TOL``. Frames produced by
    :func:`frames` additionally satisfy ``b = t x n`` exactly as
    constructed; the closure operations accept any orthonormal triple.
    """

    t: Vec3
    b: Vec3
    n: Vec3

    def __post_init__(self):
        self.validate(DEFAULT_TOL)

    def validate(self, tol: float = DEFAULT_TOL) -> None:
        for name, v in (("t", self.t), ("b", self.b), ("n", self.n)):
            if abs(v.norm() - 1.0) > tol:
                raise ValueError(f"frame vector {name} is not unit length: |{name}| = {v.norm()!r}")
        for pair, d in (("t.b", self.t.dot(self.b)), ("t.n", self.t.dot(self.n)), ("b.n", self.b.dot(self.n))):
            if abs(d) > tol:
                raise ValueError(f"frame vectors not orthogonal: {pair} = {d!r}")


@dataclass(frozen=True, slots=True)
class FrameCoords:
    """Coordinates (g1, g2, g3) of a vector in a local frame (rad/um)."""

    g1: float
    g2: float
    g3: float

    def __post_init__(self):
        if not (math.isfinite(self.g1) and math.isfinite(self.g2) and math.isfinite(self.g3)):
            raise ValueError("frame coordinates must be finite")

    def magnitude(self) -> float:
        return math.sqrt(self.g1 * self.g1 + self.g2 * self.g2 + self.g3 * self.g3)


# ---------------------------------------------------------------------------
# array kernels: one row per sample
# ---------------------------------------------------------------------------

def first_index(mask: np.ndarray) -> Optional[int]:
    """Index of the first True entry of ``mask``, or None."""
    return int(mask.argmax()) if mask.any() else None


def raise_first(checks: Sequence[Tuple[np.ndarray, Callable[[int], Exception]]]) -> None:
    """Raise for the lowest sample index that fails any of ``checks``.

    Each check is a (failure mask, exception factory taking the index). At
    that index the first failing check in order wins, exactly as a loop over
    the samples that runs the checks in order would report it.
    """
    found = [i for i in (first_index(mask) for mask, _ in checks) if i is not None]
    if not found:
        return
    i = min(found)
    for mask, make in checks:
        if mask[i]:
            raise make(i)


def dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of N x 3 arrays, summed in x, y, z order."""
    return a[:, 0] * b[:, 0] + a[:, 1] * b[:, 1] + a[:, 2] * b[:, 2]


def norms(a: np.ndarray) -> np.ndarray:
    return np.sqrt(dot(a, a))


def cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.column_stack((
        a[:, 1] * b[:, 2] - a[:, 2] * b[:, 1],
        a[:, 2] * b[:, 0] - a[:, 0] * b[:, 2],
        a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0],
    ))


def combine(t: np.ndarray, b: np.ndarray, n: np.ndarray, c1, c2, c3) -> np.ndarray:
    """Rows c1*t + c2*b + c3*n; the coefficients are arrays of N or scalars."""
    c1, c2, c3 = (np.asarray(c, dtype=float)[..., None] for c in (c1, c2, c3))
    return t * c1 + b * c2 + n * c3


def check_orthonormal(t: np.ndarray, b: np.ndarray, n: np.ndarray, tol: float = DEFAULT_TOL) -> None:
    """The checks of :meth:`Frame.validate` on every row; ValueError tagged with the first failing row."""
    lengths = [(name, norms(v)) for name, v in (("t", t), ("b", b), ("n", n))]
    dots = [(pair, dot(u, v)) for pair, u, v in (("t.b", t, b), ("t.n", t, n), ("b.n", b, n))]
    raise_first(
        [(~(np.abs(ln - 1.0) <= tol), lambda i, name=name, ln=ln: at_sample(ValueError(
            f"frame vector {name} is not unit length: |{name}| = {float(ln[i])!r}"), i)) for name, ln in lengths]
        + [(~(np.abs(d) <= tol), lambda i, pair=pair, d=d: at_sample(ValueError(
            f"frame vectors not orthogonal: {pair} = {float(d[i])!r}"), i)) for pair, d in dots]
    )


def frames(profile: "SurfaceProfile", s: np.ndarray, phi: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Local frames {t, b, n} (each N x 3) of ``profile`` at the footprints (s, phi).

    With m = dh/ds at s and nu = sqrt(1 + m^2):

        t = (cos phi, sin phi, m) / nu
        n = (m cos phi, m sin phi, -1) / nu
        b = t x n              (analytically (-sin phi, cos phi, 0))

    Raises DomainError if an s is outside the profile domain, DegenerateFrame
    if the slope is not finite there, and ValueError if a frame is not
    orthonormal within ``DEFAULT_TOL``; each names the first failing row.
    """
    profile.require_radii(s)
    m = profile.slopes(s)
    i = first_index(~np.isfinite(m))
    if i is not None:
        raise at_sample(DegenerateFrame(f"surface slope is not finite at s = {float(s[i])}"), i)
    c, sn = np.cos(phi), np.sin(phi)
    # a slope beyond 1e154 overflows m*m to inf, as float math does; the
    # orthonormality check then rejects the degenerate frame
    with np.errstate(over="ignore"):
        nu = np.sqrt(1.0 + m * m)
    t = np.column_stack((c / nu, sn / nu, m / nu))
    n = np.column_stack((m * c / nu, m * sn / nu, -1.0 / nu))
    b = cross(t, n)
    check_orthonormal(t, b, n)
    return t, b, n


def frame_recompose(c: FrameCoords, f: Frame) -> Vec3:
    """World-space vector g1*t + g2*b + g3*n."""
    return f.t * c.g1 + f.b * c.g2 + f.n * c.g3
