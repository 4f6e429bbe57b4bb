"""Diffracted-wavevector closure at a grating sample.

Two closure modes are provided. The basic mode sets kd = kg + kp, which off
the Bragg condition changes the wavevector length (an unphysical artifact it
is kept for: it is the cheapest possible model and fine on-Bragg). The
energy-conserving mode keeps the tangential components of kg + kp in the
local frame and resizes the normal component so that |kd| = |kp|; when the
tangential part already exceeds |kp| there is no real normal component and
the order is evanescent. :func:`closure` works on rows of world-space
wavevectors and frames, :func:`diffract` on rows of frame coordinates.

Diffraction efficiency is a pluggable hook (sample, probe) -> eta in [0, 1],
fixed at 1 by default; the zero order carries 1 - eta. Rigorous efficiency
theories can be plugged in without touching this API.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import at_sample
from .geometry import Vec3, combine, dot, first_index, norms
from .recording import GratingSample
from .waves import Wave

MODES = ("basic", "energy")

EfficiencyHook = Callable[[GratingSample, Wave], float]


class DiffractionStatus(str, Enum):
    PROPAGATING = "propagating"
    EVANESCENT = "evanescent"
    PASS_THROUGH = "pass_through"


# Status codes of the array kernels: STATUSES[code] is the status.
STATUSES = tuple(DiffractionStatus)
PROPAGATING, EVANESCENT, PASS_THROUGH = (STATUSES.index(s) for s in (
    DiffractionStatus.PROPAGATING, DiffractionStatus.EVANESCENT, DiffractionStatus.PASS_THROUGH))


@dataclass(frozen=True)
class DiffractionResult:
    """Outcome of one closure: diffracted wavevector (None when evanescent),
    status, Bragg mismatch |kg + kp| - |kp| (rad/um) and efficiency."""

    kd: Optional[Vec3]
    status: DiffractionStatus
    mismatch: float
    eta: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"efficiency must be in [0, 1], got {self.eta}")
        if self.status is DiffractionStatus.EVANESCENT:
            if self.kd is not None:
                raise ValueError("evanescent results carry no diffracted wavevector")
        elif self.kd is None:
            raise ValueError(f"{self.status.value} results need a diffracted wavevector")

    @property
    def zero_order_weight(self) -> float:
        return 1.0 - self.eta


def closure(kp: np.ndarray, kg: np.ndarray, t: np.ndarray, b: np.ndarray, n: np.ndarray,
            mode: str) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """k-vector closure on rows of world-space kp and kg (N x 3) in the frames {t, b, n}.

    Basic: kd = kg + kp. Energy-conserving: the tangential components of
    w = kg + kp are kept and the normal component is sqrt(|kp|^2 -
    tangential^2), signed like w.n (positive root on a zero dot product), so
    |kd| = |kp|; a negative radicand is evanescent. Returns kd (zero rows
    where evanescent), the status codes and the mismatch |w| - |kp|. A
    non-finite kd raises ValueError tagged with the first failing row.
    """
    # overflowing rows become inf or nan here and fail the finiteness check below
    with np.errstate(over="ignore", invalid="ignore"):
        w = kg + kp
        kp_len = norms(kp)
        mismatch = norms(w) - kp_len
        status = np.full(kp.shape[0], PROPAGATING, dtype=np.int8)
        if mode == "basic":
            kd = w
        else:
            wt, wb, wn = dot(w, t), dot(w, b), dot(w, n)
            radicand = kp_len * kp_len - (wt * wt + wb * wb)
            evanescent = radicand < 0.0
            status[evanescent] = EVANESCENT
            c = np.sqrt(np.where(evanescent, 0.0, radicand))
            c = np.where(wn < 0.0, -c, c)
            kd = combine(t, b, n, wt, wb, c)
            kd[evanescent] = 0.0
    i = first_index(~np.isfinite(kd).all(axis=1))
    if i is not None:
        raise at_sample(ValueError(f"Vec3 components must be finite, got {tuple(kd[i].tolist())}"), i)
    return kd, status, mismatch


def diffract(kp: np.ndarray, g: np.ndarray, t: np.ndarray, b: np.ndarray, n: np.ndarray,
             mode: str) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closure at samples with frame coordinates ``g`` (N x 3) in the frames {t, b, n}.

    kg = g1 t + g2 b + g3 n; samples with kg = 0 pass the probe through
    (kd = kp, mismatch 0). Returns kd, status codes and mismatch as
    :func:`closure` does.
    """
    if mode not in MODES:
        raise ValueError(f"unknown closure mode {mode!r}; expected one of {MODES}")
    with np.errstate(over="ignore"):  # overflowing rows are caught by the checks of closure and trace_field
        kg = combine(t, b, n, g[:, 0], g[:, 1], g[:, 2])
        through = norms(g) == 0.0
    kd, status, mismatch = closure(kp, kg, t, b, n, mode)
    kd[through] = kp[through]
    status[through] = PASS_THROUGH
    mismatch[through] = 0.0
    return kd, status, mismatch
