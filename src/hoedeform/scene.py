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

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigError, EmptyBundle, NoMinimumInRange
from .geometry import PolarPoint, Vec2, Vec3
from .diffraction import DiffractionResult, DiffractionStatus, EfficiencyHook, diffract_sample
from .recording import GratingVectorField
from .waves import Wave

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


@dataclass(frozen=True)
class TraceRecord:
    """Per-sample trace outcome; ``ray`` is None for evanescent samples."""

    index: int
    footprint: PolarPoint
    position: Vec3
    status: DiffractionStatus
    ray: Optional[Ray]
    result: DiffractionResult


def trace_field(
    field: GratingVectorField,
    probe: Wave,
    mode: str = "energy",
    efficiency: Optional[EfficiencyHook] = None,
) -> List[TraceRecord]:
    """Diffract ``probe`` at every sample of ``field`` and emit rays."""

    def one(i: int, smp) -> TraceRecord:
        res = diffract_sample(smp, probe, mode=mode, efficiency=efficiency)
        ray = None
        if res.status is not DiffractionStatus.EVANESCENT:
            ray = Ray(smp.position, res.kd.normalized(), res.eta)
        return TraceRecord(i, smp.footprint, smp.position, res.status, ray, res)

    return [one(i, smp) for i, smp in enumerate(field.samples)]


@dataclass(frozen=True)
class PlaneHits:
    """Intersections of a ray bundle with the plane z = z0.

    ``hits`` pairs ray indices with plane coordinates; rays parallel to the
    plane or intersecting it backward are flagged by index instead.
    """

    z0: float
    hits: Tuple[Tuple[int, Vec2], ...]
    parallel: Tuple[int, ...]
    behind: Tuple[int, ...]


def intersect_plane(rays: Sequence[Ray], z0: float) -> PlaneHits:
    """Forward intersections origin + t*direction with z = z0 (t > 0 required)."""
    hits = []
    parallel = []
    behind = []
    for i, ray in enumerate(rays):
        dz = ray.direction.z
        if abs(dz) <= PARALLEL_TOL:
            parallel.append(i)
            continue
        t = (z0 - ray.origin.z) / dz
        if t <= 0.0:
            behind.append(i)
            continue
        hits.append((i, Vec2(ray.origin.x + t * ray.direction.x, ray.origin.y + t * ray.direction.y)))
    return PlaneHits(z0, tuple(hits), tuple(parallel), tuple(behind))


@dataclass(frozen=True)
class SpotReport:
    """Centroid and RMS spot radii of a bundle cross-section at z (mm)."""

    z: float
    centroid: Vec2
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
    usable = [r for r in rays if r.direction.z > PARALLEL_TOL]
    excluded = len(rays) - len(usable)
    if len(usable) < 2:
        raise EmptyBundle(f"focal scan needs >= 2 forward rays, got {len(usable)}")
    max_oz = max(r.origin.z for r in usable)
    if z_lo <= max_oz:
        raise ValueError(f"scan range must start forward of all ray origins (z_min {z_lo} <= origin z {max_oz})")

    spacing = (z_hi - z_lo) / (n_planes - 1)
    z = z_lo + spacing * np.arange(n_planes, dtype=float)
    o = np.array([(r.origin.x, r.origin.y, r.origin.z) for r in usable])
    d = np.array([(r.direction.x, r.direction.y, r.direction.z) for r in usable])
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
        SpotReport(zi, Vec2(xi, yi), rx, ry, rt)
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
        n_rays_used=len(usable),
        n_rays_excluded=excluded,
        z_star_x=zs_x,
        z_star_y=zs_y,
        z_star_total=zs_t,
    )


# ---------------------------------------------------------------------------
# deterministic CSV emission / parsing
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return format(x, ".17g")


RAYS_HEADER = "s,phi,x,y,z,dx,dy,dz,status,weight"
HITS_HEADER = "z0,x,y,ray_index"
SPOTS_HEADER = "z,cx,cy,rms_x,rms_y,rms_total"


def rays_csv_lines(records: Sequence[TraceRecord]) -> List[str]:
    lines = [RAYS_HEADER]
    for rec in records:
        fp = rec.footprint
        if rec.ray is not None:
            d = rec.ray.direction
            dxyz = (_fmt(d.x), _fmt(d.y), _fmt(d.z))
            weight = rec.ray.weight
        else:
            dxyz = ("", "", "")  # evanescent: no propagating direction
            weight = 0.0
        lines.append(",".join((
            _fmt(fp.s), _fmt(fp.phi),
            _fmt(rec.position.x), _fmt(rec.position.y), _fmt(rec.position.z),
            *dxyz, rec.status.value, _fmt(weight),
        )))
    return lines


def write_rays_csv(records: Sequence[TraceRecord], path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(rays_csv_lines(records)) + "\n")


def read_rays_csv(path) -> List[Ray]:
    """Rays (propagating and pass-through rows) from a rays.csv file.

    Every row needs a known status; evanescent rows, and only they, have an
    empty direction and yield no ray. A malformed row is a ConfigError.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except FileNotFoundError as exc:
        raise ConfigError(f"rays file not found: {path}") from exc
    if not lines or lines[0] != RAYS_HEADER:
        raise ConfigError(f"rays file {path} missing header {RAYS_HEADER!r}")
    statuses = {status.value for status in DiffractionStatus}
    rays = []
    for ln, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 10:
            raise ConfigError(f"rays file {path} line {ln}: expected 10 fields, got {len(parts)}")
        status = parts[8]
        if status not in statuses:
            raise ConfigError(f"rays file {path} line {ln}: unknown status {status!r}")
        evanescent = status == DiffractionStatus.EVANESCENT.value
        if evanescent != (parts[5:8] == ["", "", ""]):
            raise ConfigError(f"rays file {path} line {ln}: the direction must be empty exactly on evanescent rows")
        if evanescent:
            continue
        try:
            origin = Vec3(float(parts[2]), float(parts[3]), float(parts[4]))
            direction = Vec3(float(parts[5]), float(parts[6]), float(parts[7]))
            rays.append(Ray(origin, direction, float(parts[9])))
        except ValueError as exc:
            raise ConfigError(f"rays file {path} line {ln}: {exc}") from exc
    return rays


def write_hits_csv(plane_hits: Sequence[PlaneHits], path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(HITS_HEADER + "\n")
        for ph in plane_hits:
            for idx, pt in ph.hits:
                fh.write(",".join((_fmt(ph.z0), _fmt(pt.x), _fmt(pt.y), str(idx))) + "\n")


def write_spots_csv(reports: Sequence[SpotReport], path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(SPOTS_HEADER + "\n")
        for r in reports:
            fh.write(",".join((
                _fmt(r.z), _fmt(r.centroid.x), _fmt(r.centroid.y),
                _fmt(r.rms_x), _fmt(r.rms_y), _fmt(r.rms_total),
            )) + "\n")
