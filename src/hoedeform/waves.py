"""Monochromatic plane and spherical waves.

A wave supplies a local wavevector (rad/um) and scalar amplitude at any
point. Spherical waves come in a diverging flavor (phase +k|r - r0|, wave
moving away from r0) and a converging flavor (phase -k|r - r0|, wave moving
toward r0); the sign flip is exactly what distinguishes them. Interference
intensities use the steady-state two-beam formula

    I = A1^2 + A2^2 + 2 A1 A2 cos(dphi)

with dphi the local phase difference of the two waves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .errors import SingularPoint, WavelengthMismatch, at_sample
from .geometry import Vec3, first_index, norms
from .units import path_mm_to_um, wavelength_nm_to_um, wavenumber_rad_per_um

# Spherical waves are singular at their source/target point; evaluations
# closer than this (mm) are rejected.
SOURCE_EXCLUSION_MM = 1e-9


@dataclass(frozen=True, slots=True)
class Wavelength:
    """Vacuum wavelength, entered in nm; exposes k = 2*pi/lambda in rad/um."""

    lambda_nm: float

    def __post_init__(self):
        if not (math.isfinite(self.lambda_nm) and self.lambda_nm > 0.0):
            raise ValueError(f"wavelength must be positive and finite, got {self.lambda_nm}")
        if not math.isfinite(self.k):
            raise ValueError(f"wavelength {self.lambda_nm} nm is too small: k = 2*pi/lambda is not finite")

    @property
    def lambda_um(self) -> float:
        return wavelength_nm_to_um(self.lambda_nm)

    @property
    def k(self) -> float:
        return wavenumber_rad_per_um(self.lambda_nm)


class WaveKind(str, Enum):
    PLANE = "plane"
    SPHERICAL_DIVERGING = "spherical_diverging"
    SPHERICAL_CONVERGING = "spherical_converging"


@dataclass(frozen=True)
class Wave:
    """A plane wave (unit ``direction``) or spherical wave (source/target ``point``)."""

    kind: WaveKind
    wavelength: Wavelength
    amplitude: float = 1.0
    direction: Optional[Vec3] = None
    point: Optional[Vec3] = None

    def __post_init__(self):
        if not (math.isfinite(self.amplitude) and self.amplitude >= 0.0):
            raise ValueError("amplitude must be finite and >= 0")
        if self.kind is WaveKind.PLANE:
            if self.direction is None or self.point is not None:
                raise ValueError("plane waves need a direction and no point")
            if abs(self.direction.norm() - 1.0) > 1e-12:
                raise ValueError("plane-wave direction must be unit length")
        else:
            if self.point is None or self.direction is not None:
                raise ValueError("spherical waves need a point and no direction")

    @classmethod
    def plane(cls, direction: Vec3, wavelength: Wavelength, amplitude: float = 1.0) -> "Wave":
        return cls(WaveKind.PLANE, wavelength, amplitude, direction=direction.normalized())

    @classmethod
    def diverging(cls, origin: Vec3, wavelength: Wavelength, amplitude: float = 1.0) -> "Wave":
        return cls(WaveKind.SPHERICAL_DIVERGING, wavelength, amplitude, point=origin)

    @classmethod
    def converging(cls, target: Vec3, wavelength: Wavelength, amplitude: float = 1.0) -> "Wave":
        return cls(WaveKind.SPHERICAL_CONVERGING, wavelength, amplitude, point=target)


def _radial(w: Wave, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Offsets r - r0 (N x 3) of spherical-wave points and their lengths;
    SingularPoint, tagged with the first failing row, at the source."""
    d = r - np.array(w.point.as_tuple())
    with np.errstate(over="ignore"):  # as in float math, a far-off point is at distance inf
        dist = norms(d)
    i = first_index(dist <= SOURCE_EXCLUSION_MM)
    if i is not None:
        raise at_sample(SingularPoint(f"wave evaluated {float(dist[i])} mm from its source/target point"), i)
    return d, dist


def local_wavevectors(w: Wave, r: np.ndarray) -> np.ndarray:
    """Wavevectors (N x 3) of ``w`` at the positions ``r`` (N x 3, mm); each has length 2*pi/lambda (rad/um)."""
    k = w.wavelength.k
    if w.kind is WaveKind.PLANE:
        return np.tile(np.array(w.direction.as_tuple()) * k, (r.shape[0], 1))
    d, dist = _radial(w, r)
    u = d / dist[:, None]
    if w.kind is WaveKind.SPHERICAL_DIVERGING:
        return u * k
    return u * (-k)  # converging: k * (r0 - r)/|r0 - r|


def local_wavevector(w: Wave, r: Vec3) -> Vec3:
    """Single-point form of :func:`local_wavevectors`."""
    return Vec3(*local_wavevectors(w, np.array([r.as_tuple()]))[0].tolist())


def local_amplitude(w: Wave, r: Vec3) -> float:
    """Scalar amplitude at ``r``: A0 for plane waves, A0 / (pi |r - r0|) for spherical."""
    if w.kind is WaveKind.PLANE:
        return w.amplitude
    dist = float(_radial(w, np.array([r.as_tuple()]))[1][0])
    return w.amplitude / (math.pi * dist)


def _local_phase(w: Wave, r: Vec3) -> float:
    """Spatial phase (rad) of ``w`` at ``r``; mm paths converted to um here."""
    k = w.wavelength.k
    if w.kind is WaveKind.PLANE:
        return k * path_mm_to_um(w.direction.dot(r))
    dist = float(_radial(w, np.array([r.as_tuple()]))[1][0])
    phase = k * path_mm_to_um(dist)
    return phase if w.kind is WaveKind.SPHERICAL_DIVERGING else -phase


def require_same_wavelength(w1: Wave, w2: Wave) -> None:
    l1, l2 = w1.wavelength.lambda_nm, w2.wavelength.lambda_nm
    if abs(l1 - l2) > 1e-12 * max(l1, l2):
        raise WavelengthMismatch(f"wavelengths differ: {l1} nm vs {l2} nm")


def interference_intensity(w1: Wave, w2: Wave, r: Vec3) -> float:
    """Two-beam interference intensity at ``r`` for equal-wavelength waves."""
    require_same_wavelength(w1, w2)
    a1 = local_amplitude(w1, r)
    a2 = local_amplitude(w2, r)
    dphi = _local_phase(w2, r) - _local_phase(w1, r)
    return a1 * a1 + a2 * a2 + 2.0 * a1 * a2 * math.cos(dphi)
