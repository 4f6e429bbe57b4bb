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

from .errors import NonPositiveFactor, NoPreimage
from .geometry import first_index
from .recording import GratingVectorField, hook_values, sample_context
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
    factor: Union[float, Callable[[GratingVectorField], np.ndarray]],
) -> GratingVectorField:
    """Scale grating vectors per sample (shrinkage/stretch compensation hook).

    ``factor`` is a positive number or a function called once as
    ``factor(field)`` that returns the N positive factors, one per sample in
    field order (``1 + a * field.s`` for a radial one); positions and frames
    are untouched, magnitudes scale accordingly (so the fringe period divides
    by the factor).
    """
    if callable(factor):
        f = hook_values(factor(field), len(field), "rescale factor")
    else:
        f = np.full(len(field), float(factor))
    i = first_index(~(np.isfinite(f) & (f > 0.0)))
    if i is not None:
        raise NonPositiveFactor(f"rescale factor must be finite and > 0, got {float(f[i])} at s={float(field.s[i])}")
    with np.errstate(over="ignore"):  # overflowing coordinates fail the field's finiteness check
        g = field.g * f[:, None]
    return GratingVectorField(field.carrier, field.s, field.phi, field.pos, g, field.grid, field.wavelength_nm)
