"""Transport of grating vector fields between planar and curved carriers.

Deforming a recorded HOE is modeled pointwise: a projection carries every
sample footprint to the other surface, and the grating vector keeps its
coordinates (g1, g2, g3) with respect to the local frame, re-expressed in
the frame of the image point. Copying frame coordinates through orthonormal
frames preserves the grating vector length exactly, and the construction is
its own inverse: pushing a field forward and pulling it back (or vice versa)
reproduces footprints, frames and coordinates.

``induce_forward`` answers the prediction problem (what does a planar HOE do
after being bent onto a curved surface); ``induce_inverse`` answers the
precompensation problem (which planar HOE must be recorded so that, once
bent, it realizes a prescribed curved field). ``rescale`` is the hook for
global or local shrinkage/stretching corrections; mechanics-based strain
fields are deliberately out of scope.
"""

from __future__ import annotations

import bisect
import math
from typing import Callable, Union

from .config import parse_field_grid
from .errors import DomainError, HoedeformError, NonPositiveFactor, NoPreimage
from .geometry import FrameCoords, PolarPoint, Vec2, Vec3, build_frame, frame_decompose
from .recording import GratingSample, GratingVectorField, GridSpec, PolarGrid
from .surfaces import Projection, SurfaceProfile, evaluate, inverse_project, project


def _with_sample_context(i: int, smp: GratingSample, exc: HoedeformError) -> HoedeformError:
    return type(exc)(f"sample {i} (s={smp.footprint.s}, phi={smp.footprint.phi}): {exc}")


def induce_forward(
    source: GratingVectorField,
    target_profile: SurfaceProfile,
    proj: Projection,
) -> GratingVectorField:
    """Push a planar field onto ``target_profile`` through ``proj``.

    Every source sample at plane point p moves to q = proj(p); the new sample
    keeps the source frame coordinates, evaluated in the frame of q. Sample
    order is preserved. Raises NoIntersection/DomainError (with the sample
    index) when a footprint fails to project into the target domain.
    """
    if source.carrier.kind != "planar":
        raise ValueError("forward induction expects a field on a planar carrier")

    def push(i: int, smp: GratingSample) -> GratingSample:
        try:
            q = project(proj, target_profile, smp.position)
        except HoedeformError as exc:
            raise _with_sample_context(i, smp, exc) from exc
        fp = PolarPoint(math.hypot(q.x, q.y), smp.footprint.phi)
        frame = build_frame(target_profile, fp)
        return GratingSample(fp, q, frame, smp.coords, smp.magnitude)

    samples = [push(i, smp) for i, smp in enumerate(source.samples)]
    grid = {"kind": "induced", "projection": proj.descriptor(), "source_grid": source.grid}
    return GratingVectorField(target_profile, tuple(samples), grid, source.wavelength_nm)


def induce_inverse(target: GratingVectorField, proj: Projection) -> GratingVectorField:
    """Pull a field on a curved carrier back to the plane through ``proj``.

    The output planar carrier covers the preimage of the target rim; sample
    coordinates are copied into the planar frames. Re-inducing the result
    forward through the same projection reproduces ``target``.
    """
    carrier = target.carrier
    d = carrier.domain_radius
    if proj.is_orthogonal:
        plane_radius = d
    else:
        cz = proj.center.z
        h_rim = carrier.radial_height(d)
        if cz <= h_rim:
            raise NoPreimage(f"projection center z = {cz} is not above the surface rim (h = {h_rim})")
        plane_radius = d * cz / (cz - h_rim)
    planar = SurfaceProfile.planar(plane_radius)

    def pull(i: int, smp: GratingSample) -> GratingSample:
        try:
            p = inverse_project(proj, carrier, smp.position)
        except HoedeformError as exc:
            raise _with_sample_context(i, smp, exc) from exc
        fp = PolarPoint(math.hypot(p.x, p.y), smp.footprint.phi)
        frame = build_frame(planar, fp)
        return GratingSample(fp, Vec3(p.x, p.y, 0.0), frame, smp.coords, smp.magnitude)

    samples = [pull(i, smp) for i, smp in enumerate(target.samples)]
    grid = {"kind": "induced_inverse", "projection": proj.descriptor(), "source_grid": target.grid}
    return GratingVectorField(planar, tuple(samples), grid, target.wavelength_nm)


def rescale(
    field: GratingVectorField,
    factor: Union[float, Callable[[GratingSample], float]],
) -> GratingVectorField:
    """Scale grating vectors per sample (shrinkage/stretch compensation hook).

    ``factor`` is a positive number or a function of the sample; positions
    and frames are untouched, magnitudes scale accordingly (so the fringe
    period divides by the factor).
    """
    fn = factor if callable(factor) else (lambda _s, _f=float(factor): _f)

    def scale(smp: GratingSample) -> GratingSample:
        f = float(fn(smp))
        if not (math.isfinite(f) and f > 0.0):
            raise NonPositiveFactor(f"rescale factor must be finite and > 0, got {f} at s={smp.footprint.s}")
        coords = FrameCoords(smp.coords.g1 * f, smp.coords.g2 * f, smp.coords.g3 * f)
        return GratingSample(smp.footprint, smp.position, smp.frame, coords, coords.magnitude())

    samples = [scale(smp) for smp in field.samples]
    return GratingVectorField(field.carrier, tuple(samples), field.grid, field.wavelength_nm)


def _lerp_coords(a: FrameCoords, b: FrameCoords, w: float) -> FrameCoords:
    return FrameCoords(
        a.g1 * (1.0 - w) + b.g1 * w,
        a.g2 * (1.0 - w) + b.g2 * w,
        a.g3 * (1.0 - w) + b.g3 * w,
    )


def resample_field(field: GratingVectorField, grid: GridSpec) -> GratingVectorField:
    """Interpolate a polar-structured field onto a new grid on the same carrier.

    Transport itself is pointwise and never resamples; this separate utility
    interpolates frame coordinates bilinearly in (s, phi) when a field needs
    a different lattice. The field must stem from a polar grid (inductions
    preserve the ring structure); target radii must lie inside the sampled
    radial range, with the vertex sample (if present) covering s below the
    innermost ring.
    """
    base = parse_field_grid(field.grid, "grid")
    if not isinstance(base, PolarGrid):
        raise ValueError("resampling requires a field with polar grid structure")
    n_phi, n_s, has_vertex = base.n_phi, base.n_s, base.include_vertex

    offset = 1 if has_vertex else 0
    if len(field.samples) != offset + n_s * n_phi:
        raise ValueError(f"field has {len(field.samples)} samples, polar structure expects {offset + n_s * n_phi}")
    vertex = field.samples[0] if has_vertex else None
    vertex_world = vertex.kg_world() if vertex is not None else None
    rings = [field.samples[offset + j * n_phi: offset + (j + 1) * n_phi] for j in range(n_s)]
    ring_s = [ring[0].footprint.s for ring in rings]
    dphi = 2.0 * math.pi / n_phi

    def ring_coords(j: int, phi: float) -> FrameCoords:
        # periodic linear interpolation along ring j; j = -1 is the vertex,
        # whose stored world vector is re-expressed in the frame at azimuth phi
        if j < 0:
            return frame_decompose(vertex_world, build_frame(field.carrier, PolarPoint(0.0, phi)))
        u = (phi % (2.0 * math.pi)) / dphi
        i0 = int(math.floor(u)) % n_phi
        w = u - math.floor(u)
        return _lerp_coords(rings[j][i0].coords, rings[j][(i0 + 1) % n_phi].coords, w)

    def interp(p: PolarPoint) -> GratingSample:
        s = p.s
        if s > ring_s[-1] * (1.0 + 1e-12):
            raise DomainError(f"target radius {s} outside sampled range [0, {ring_s[-1]}]")
        if s <= ring_s[0]:
            if vertex is None:
                raise DomainError(f"target radius {s} below the innermost ring and no vertex sample present")
            lo, hi, w = -1, 0, s / ring_s[0]
        else:
            lo = min(bisect.bisect_right(ring_s, s), n_s - 1) - 1
            hi = lo + 1
            w = min(1.0, (s - ring_s[lo]) / (ring_s[hi] - ring_s[lo]))
        coords = _lerp_coords(ring_coords(lo, p.phi), ring_coords(hi, p.phi), w)
        x, y = p.xy()
        pos = evaluate(field.carrier, Vec2(x, y))
        frame = build_frame(field.carrier, p)
        return GratingSample(p, pos, frame, coords, coords.magnitude())

    pts = grid.footprints(field.carrier.domain_radius)
    return GratingVectorField(field.carrier, tuple(interp(p) for p in pts), grid.descriptor(), field.wavelength_nm)
