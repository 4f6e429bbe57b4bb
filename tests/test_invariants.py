"""Physics invariants of the trace over drawn scenes.

Hypothesis draws a planar recording, a carrier (planar, a sphere cap or a
custom convex paraboloid), the projection that bends the film onto it
(orthogonal, or central with the center in one of four regimes relative to
the carrier's vertex radius of curvature R) and plane or spherical
recording waves and probe. The trace must satisfy, on every sample, the
vector raytrace equation for holograms on curved surfaces (W. T. Welford,
Opt. Commun. 14, 322, 1975): the tangential part of kd - kp equals that of
kg. In energy mode every propagating kd is as long as kp. Both are stated
from the carrier frames of the bent field and the probe evaluated at the
sample positions, not through the closure. Replaying a recording on its own
carrier with the first recording wave gives the second wave's direction,
and mirroring the scene in y mirrors the trace.
"""

import dataclasses
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hoedeform.deformation import induce_forward
from hoedeform.diffraction import EVANESCENT, PROPAGATING
from hoedeform.geometry import TWO_PI, Vec3, combine, cross, dot, norms
from hoedeform.recording import PolarGrid, record
from hoedeform.scene import trace_field
from hoedeform.surfaces import Projection, SurfaceProfile
from hoedeform.waves import Wave, Wavelength, local_wavevectors

DOMAIN_MM = 10.0
LAM = Wavelength(500.0)
FILM = SurfaceProfile.planar(DOMAIN_MM)
# C_z / R of the central projection: center above the antipode (> 2R), near
# it, between the sphere center and the antipode, and below the sphere center.
CENTER_REGIMES = {"above_2r": (2.5, 10.0), "near_2r": (1.99, 2.01), "r_to_2r": (1.1, 1.9), "below_r": (0.2, 0.9)}
INVARIANTS = settings(max_examples=80, deadline=None, database=None, derandomize=True)


def _carrier(kind, radius):
    if kind == "planar":
        return SurfaceProfile.planar(DOMAIN_MM)
    if kind == "sphere_cap":
        return SurfaceProfile.sphere_cap(radius, DOMAIN_MM)
    return SurfaceProfile.custom_convex(lambda s: s * s / (2.0 * radius), DOMAIN_MM, slope=lambda s: s / radius)


@st.composite
def waves(draw, wavelength=LAM):
    """A plane wave travelling up, a point source below the film or a focus above it."""
    kind = draw(st.sampled_from(["plane", "diverging", "converging"]))
    lateral = st.floats(-20.0, 20.0)
    if kind == "plane":
        theta, phi = draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 2.0 * math.pi))
        return Wave.plane(Vec3(math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta)),
                          wavelength)
    if kind == "diverging":
        return Wave.diverging(Vec3(draw(lateral), draw(lateral), draw(st.floats(-80.0, -20.0))), wavelength)
    return Wave.converging(Vec3(draw(lateral), draw(lateral), draw(st.floats(40.0, 120.0))), wavelength)


@st.composite
def setups(draw):
    """(w1, w2, grid, carrier, projection, probe, closure mode) of a drawn scene."""
    radius = draw(st.floats(30.0, 200.0))
    carrier = _carrier(draw(st.sampled_from(["planar", "sphere_cap", "custom_convex"])), radius)
    regime = draw(st.sampled_from(["orthogonal", *CENTER_REGIMES]))
    if regime == "orthogonal":
        projection = Projection.orthogonal()
    else:
        projection = Projection.from_center_z(draw(st.floats(*CENTER_REGIMES[regime])) * radius)
    grid = PolarGrid(draw(st.integers(1, 5)), draw(st.integers(1, 9)))
    w1, w2 = draw(waves()), draw(waves())
    probe = draw(waves(Wavelength(draw(st.floats(450.0, 650.0)))))
    return w1, w2, grid, carrier, projection, probe, draw(st.sampled_from(["basic", "energy"]))


def _bent(w1, w2, grid, carrier, projection):
    """The field recorded on the planar film and bent onto ``carrier``."""
    return induce_forward(record(w1, w2, FILM, grid), carrier, projection)


def scenes():
    """(bent field, probe, closure mode) of a drawn scene."""
    return setups().map(lambda setup: (_bent(*setup[:5]), *setup[5:]))


def _mirrored(wave):
    """``wave`` mirrored in y -> -y."""
    key = "direction" if wave.point is None else "point"
    v = getattr(wave, key)
    return dataclasses.replace(wave, **{key: Vec3(v.x, -v.y, v.z)})


def _tangential(v, n):
    return v - dot(v, n)[:, None] * n


@INVARIANTS
@given(scene=scenes())
def test_tangential_kd_minus_kp_is_tangential_kg(scene):
    field, probe, mode = scene
    t, b, n = field.frames()
    kg = combine(t, b, n, field.g[:, 0], field.g[:, 1], field.g[:, 2])
    kp = local_wavevectors(probe, field.pos)
    trace = trace_field(field, probe, mode=mode)
    live = trace.status != EVANESCENT
    assert mode == "energy" or live.all()
    miss = norms(_tangential(trace.kd - kp, n) - _tangential(kg, n))[live]
    scale = (norms(kp) + norms(kg))[live]
    assert np.all(miss <= 1e-12 * scale), (miss / scale).max()


@INVARIANTS
@given(scene=scenes())
def test_energy_mode_keeps_the_probe_length(scene):
    field, probe, _ = scene
    trace = trace_field(field, probe, mode="energy")
    kp = norms(local_wavevectors(probe, field.pos))
    propagating = trace.status == PROPAGATING
    assert np.all(np.abs(norms(trace.kd) - kp)[propagating] <= 1e-12 * kp[propagating])


@INVARIANTS
@given(setup=setups())
def test_on_bragg_replay_gives_the_second_wave(setup):
    # recorded on the carrier itself (no bend) and replayed by w1: kd runs along w2
    w1, w2, grid, carrier, _, _, _ = setup
    field = record(w1, w2, carrier, grid)
    trace = trace_field(field, w1, mode="energy")
    assert not (trace.status == EVANESCENT).any()
    k2 = local_wavevectors(w2, field.pos)
    angle = np.arctan2(norms(cross(trace.direction, k2)), dot(trace.direction, k2))
    assert np.all(angle <= 1e-9), angle.max()


@INVARIANTS
@given(setup=setups())
def test_mirroring_the_scene_in_y_mirrors_the_trace(setup):
    w1, w2, grid, carrier, projection, probe, mode = setup
    base = trace_field(_bent(w1, w2, grid, carrier, projection), probe, mode)
    mirrored = trace_field(_bent(_mirrored(w1), _mirrored(w2), grid, carrier, projection), _mirrored(probe), mode)
    # azimuth index j of every ring goes to (n_phi - j) mod n_phi; the vertex stays
    ring, azimuth = np.divmod(np.arange(grid.n_s * grid.n_phi), grid.n_phi)
    perm = np.concatenate(([0], 1 + ring * grid.n_phi + (grid.n_phi - azimuth) % grid.n_phi))
    assert np.all(np.abs(mirrored.s[perm] - base.s) <= 1e-12 * np.maximum(base.s, 1.0))
    assert np.all(np.abs(mirrored.phi[perm] - np.mod(TWO_PI - base.phi, TWO_PI)) <= 1e-12)
    assert np.array_equal(mirrored.status[perm], base.status)
    flip = np.array([1.0, -1.0, 1.0])
    for name in ("pos", "kd", "direction"):
        a, b = getattr(mirrored, name)[perm], getattr(base, name) * flip
        assert np.all(norms(a - b) <= 1e-12 * np.maximum(norms(b), 1.0)), name
