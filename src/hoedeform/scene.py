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

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

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

    ``bracketed_*`` report whether each minimum is interior to the scan
    range (a boundary minimum means the true focus may lie outside).
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


def _spot(points: List[Tuple[float, float]], z: float) -> SpotReport:
    n = len(points)
    cx = sum(p[0] for p in points) / n
    cy = sum(p[1] for p in points) / n
    vx = sum((p[0] - cx) ** 2 for p in points) / n
    vy = sum((p[1] - cy) ** 2 for p in points) / n
    rx, ry = math.sqrt(vx), math.sqrt(vy)
    return SpotReport(z, Vec2(cx, cy), rx, ry, math.sqrt(vx + vy))


def _argmin(values: List[float]) -> int:
    best = 0
    for i, v in enumerate(values):
        if v < values[best]:
            best = i
    return best


def focal_scan(rays: Sequence[Ray], z_range: Tuple[float, float], n_planes: int) -> FocalScanResult:
    """Scan n_planes detector planes across z_range and locate spot minima.

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
    reports = []
    for i in range(n_planes):
        z = z_lo + spacing * i
        pts = []
        for ray in usable:
            t = (z - ray.origin.z) / ray.direction.z
            pts.append((ray.origin.x + t * ray.direction.x, ray.origin.y + t * ray.direction.y))
        reports.append(_spot(pts, z))

    rms_x = [r.rms_x for r in reports]
    rms_y = [r.rms_y for r in reports]
    rms_t = [r.rms_total for r in reports]
    ix, iy, it = _argmin(rms_x), _argmin(rms_y), _argmin(rms_t)

    flat = max(rms_t) - min(rms_t) <= 1e-12 * max(1e-300, max(rms_t))
    interior = 0 < it < n_planes - 1
    if flat or not interior:
        raise NoMinimumInRange(
            f"total RMS spot size has no interior minimum in [{z_lo}, {z_hi}]"
            + (" (constant bundle width)" if flat else "")
        )
    return FocalScanResult(
        reports=tuple(reports),
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
    """Rays (propagating and pass-through rows) from a rays.csv file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except FileNotFoundError as exc:
        raise ConfigError(f"rays file not found: {path}") from exc
    if not lines or lines[0] != RAYS_HEADER:
        raise ConfigError(f"rays file {path} missing header {RAYS_HEADER!r}")
    rays = []
    for ln, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 10:
            raise ConfigError(f"rays file {path} line {ln}: expected 10 fields, got {len(parts)}")
        if parts[5] == "":
            continue  # evanescent row
        try:
            origin = Vec3(float(parts[2]), float(parts[3]), float(parts[4]))
            direction = Vec3(float(parts[5]), float(parts[6]), float(parts[7]))
            weight = float(parts[9])
        except ValueError as exc:
            raise ConfigError(f"rays file {path} line {ln}: {exc}") from exc
        rays.append(Ray(origin, direction, weight))
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
