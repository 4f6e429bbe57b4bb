"""Vector algebra and local surface frames.

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
on arrays of N x 3 rows, and :func:`check_orthonormal` validates them.
:class:`Vec3` is the one scalar vector type, for inputs (wave directions,
source points) and for the per-sample views.
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


def check_orthonormal(t: np.ndarray, b: np.ndarray, n: np.ndarray) -> None:
    """Require unit t, b, n and zero pairwise dot products within ``DEFAULT_TOL`` on every row,
    for any orthonormal triple; ValueError tagged with the first failing row."""
    lengths = [(name, norms(v)) for name, v in (("t", t), ("b", b), ("n", n))]
    dots = [(pair, dot(u, v)) for pair, u, v in (("t.b", t, b), ("t.n", t, n), ("b.n", b, n))]
    raise_first(
        [(~(np.abs(ln - 1.0) <= DEFAULT_TOL), lambda i, name=name, ln=ln: at_sample(ValueError(
            f"frame vector {name} is not unit length: |{name}| = {float(ln[i])!r}"), i)) for name, ln in lengths]
        + [(~(np.abs(d) <= DEFAULT_TOL), lambda i, pair=pair, d=d: at_sample(ValueError(
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
    m = _finite_slopes(profile, s)
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


def _finite_slopes(profile: "SurfaceProfile", s: np.ndarray) -> np.ndarray:
    """dh/ds at ``s``; DomainError or DegenerateFrame for the first radius
    outside the domain or with a slope that is not finite."""
    profile.require_radii(s)
    m = profile.slopes(s)
    i = first_index(~np.isfinite(m))
    if i is not None:
        raise at_sample(DegenerateFrame(f"surface slope is not finite at s = {float(s[i])}"), i)
    return m


def check_frames(profile: "SurfaceProfile", s: np.ndarray, phi: np.ndarray) -> None:
    """Raise what :func:`frames` raises for the footprints (s, phi), finite
    phi, without building the frames.

    By its closed form the frame of a finite slope m is orthonormal: with
    m * m finite, each length and dot product is exact up to a few units
    in the last place, far inside ``DEFAULT_TOL``. Only where m * m
    overflows does the frame degenerate, so the first such row has its
    frame built alone, to raise the orthonormality error ``frames`` would.
    """
    m = _finite_slopes(profile, s)
    with np.errstate(over="ignore"):
        i = first_index(~np.isfinite(m * m))
    if i is not None:
        try:
            frames(profile, s[i:i + 1], phi[i:i + 1])
        except (ValueError, DegenerateFrame) as exc:
            raise at_sample(exc, i)
