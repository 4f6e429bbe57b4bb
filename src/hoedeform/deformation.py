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

from typing import Callable, Union

import numpy as np

from .config import parse_field_grid
from .errors import DomainError, NonPositiveFactor, NoPreimage, at_sample
from .geometry import TWO_PI, combine, dot, first_index, frames, raise_first
from .recording import GratingSample, GratingVectorField, GridSpec, PolarGrid, sample_context
from .surfaces import Projection, SurfaceProfile, inverse_project_points, project_points


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
    with sample_context(source.s, source.phi):
        q = project_points(proj, target_profile, source.pos)
    grid = {"kind": "induced", "projection": proj.descriptor(), "source_grid": source.grid}
    return GratingVectorField(target_profile, np.hypot(q[:, 0], q[:, 1]), source.phi, q, source.g, grid,
                              source.wavelength_nm)


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
    with sample_context(target.s, target.phi):
        p = inverse_project_points(proj, carrier, target.pos)
    grid = {"kind": "induced_inverse", "projection": proj.descriptor(), "source_grid": target.grid}
    return GratingVectorField(planar, np.hypot(p[:, 0], p[:, 1]), target.phi, p, target.g, grid,
                              target.wavelength_nm)


def rescale(
    field: GratingVectorField,
    factor: Union[float, Callable[[GratingSample], float]],
) -> GratingVectorField:
    """Scale grating vectors per sample (shrinkage/stretch compensation hook).

    ``factor`` is a positive number or a function of the sample (called on
    each record of ``field.samples``, in order); positions and frames are
    untouched, magnitudes scale accordingly (so the fringe period divides by
    the factor).
    """
    if callable(factor):
        f = np.array([float(factor(smp)) for smp in field.samples], dtype=float)
    else:
        f = np.full(len(field), float(factor))
    i = first_index(~(np.isfinite(f) & (f > 0.0)))
    if i is not None:
        raise NonPositiveFactor(f"rescale factor must be finite and > 0, got {float(f[i])} at s={float(field.s[i])}")
    with np.errstate(over="ignore"):  # overflowing coordinates fail the field's finiteness check
        g = field.g * f[:, None]
    return GratingVectorField(field.carrier, field.s, field.phi, field.pos, g, field.grid, field.wavelength_nm)


def resample_field(field: GratingVectorField, grid: GridSpec) -> GratingVectorField:
    """Interpolate a polar-structured field onto a new grid on the same carrier.

    Transport itself is pointwise and never resamples; this separate utility
    interpolates frame coordinates bilinearly in (s, phi) when a field needs
    a different lattice. The field must stem from a polar grid (inductions
    preserve the ring structure); target radii must lie inside the sampled
    radial range, with the vertex sample (if present) covering s below the
    innermost ring. The vertex's world vector is re-expressed in the frame
    at each target azimuth.
    """
    base = parse_field_grid(field.grid, "grid")
    if not isinstance(base, PolarGrid):
        raise ValueError("resampling requires a field with polar grid structure")
    n_phi, n_s, has_vertex = base.n_phi, base.n_s, base.include_vertex

    offset = 1 if has_vertex else 0
    if len(field) != offset + n_s * n_phi:
        raise ValueError(f"field has {len(field)} samples, polar structure expects {offset + n_s * n_phi}")
    carrier = field.carrier
    ring_s = field.s[offset::n_phi]
    rings = field.g[offset:].reshape(n_s, n_phi, 3)
    s, phi = grid.footprint_arrays(carrier.domain_radius)
    inner = s <= ring_s[0]
    raise_first([
        (s > ring_s[-1] * (1.0 + 1e-12), lambda i: at_sample(DomainError(
            f"target radius {float(s[i])} outside sampled range [0, {float(ring_s[-1])}]"), i)),
        (inner & (not has_vertex), lambda i: at_sample(DomainError(
            f"target radius {float(s[i])} below the innermost ring and no vertex sample present"), i)),
    ])

    # periodic linear interpolation along the rings
    u = np.mod(phi, TWO_PI) / (TWO_PI / n_phi)
    i0 = np.floor(u).astype(np.intp) % n_phi
    w_phi = (u - np.floor(u))[:, None]

    def ring_coords(j: np.ndarray) -> np.ndarray:
        return rings[j, i0] * (1.0 - w_phi) + rings[j, (i0 + 1) % n_phi] * w_phi

    lo = np.maximum(np.minimum(np.searchsorted(ring_s, s, side="right"), n_s - 1) - 1, 0)
    hi = np.minimum(lo + 1, n_s - 1)
    span = ring_s[hi] - ring_s[lo]
    w = np.where(inner, s / ring_s[0],
                 np.minimum(1.0, np.divide(s - ring_s[lo], span, out=np.ones_like(s), where=span > 0.0)))[:, None]
    below, above = ring_coords(lo), ring_coords(np.where(inner, 0, hi))
    if has_vertex:
        world = combine(*frames(carrier, field.s[:1], field.phi[:1]), *field.g[0])
        t, b, n = frames(carrier, np.zeros_like(s), phi)
        world = np.broadcast_to(world, t.shape)
        below = np.where(inner[:, None], np.column_stack((dot(world, t), dot(world, b), dot(world, n))), below)
    g = below * (1.0 - w) + above * w

    x, y = s * np.cos(phi), s * np.sin(phi)
    r = np.hypot(x, y)
    carrier.require_radii(r)
    return GratingVectorField(carrier, s, phi, np.column_stack((x, y, carrier.heights(r))), g, grid.descriptor(),
                              field.wavelength_nm)
