import copy
import json
import math
from pathlib import Path

import numpy as np
import pytest

import oracles
from hoedeform.config import parse_scene_config
from hoedeform.deformation import (
    induce_forward,
    induce_inverse,
    resample_field,
    rescale,
)
from hoedeform.errors import DomainError, NoIntersection, NonPositiveFactor
from hoedeform.geometry import Vec3, combine, norms
from hoedeform.recording import PolarGrid, record
from hoedeform.scene import focal_scan, trace_field
from hoedeform.surfaces import Projection, SurfaceProfile
from hoedeform.waves import Wave, Wavelength, local_wavevector, local_wavevectors

LAM = Wavelength(500.0)
W0 = Wave.plane(Vec3(0, 0, 1), LAM)
W65 = Wave.plane(Vec3(math.sin(math.radians(65)), 0.0, math.cos(math.radians(65))), LAM)
FLAT = SurfaceProfile.planar(10.0)
CAP = SurfaceProfile.sphere_cap(50.0, 10.0)


def _rot_z(v: Vec3, a: float) -> Vec3:
    c, s = math.cos(a), math.sin(a)
    return Vec3(c * v.x - s * v.y, s * v.x + c * v.y, v.z)


def _fields_equal(a, b, pos_tol=1e-10, coord_tol=1e-12):
    assert len(a.samples) == len(b.samples)
    for sa, sb in zip(a.samples, b.samples):
        assert (sa.position - sb.position).norm() <= pos_tol
        scale = max(1.0, sa.magnitude)
        for ga, gb in zip(sa.coords, sb.coords):
            assert abs(ga - gb) <= coord_tol * scale


class TestForward:
    def test_planar_to_planar_is_identity(self):
        field = record(W0, W65, FLAT, PolarGrid(4, 8))
        out = induce_forward(field, FLAT, Projection.orthogonal())
        _fields_equal(field, out, pos_tol=0.0, coord_tol=0.0)

    def test_vertex_sample_unchanged(self):
        field = record(W0, W65, FLAT, PolarGrid(4, 8))
        out = induce_forward(field, CAP, Projection.orthogonal())
        vertex, source = next(iter(out.samples)), next(iter(field.samples))
        assert vertex.position.as_tuple() == (0.0, 0.0, 0.0)
        assert vertex.coords == source.coords
        assert (vertex.kg_world() - source.kg_world()).norm() == 0.0

    def test_world_vector_rotates_with_frame_tilt(self):
        field = record(W0, W65, FLAT, PolarGrid(5, 4))
        out = induce_forward(field, CAP, Projection.orthogonal())
        smp = next(s for s in out.samples if abs(s.s - 10.0) < 1e-9 and s.phi == 0.0)
        alpha = math.asin(10.0 / 50.0)

        def rot_y(v, a):
            c, s = math.cos(a), math.sin(a)
            return Vec3(c * v.x + s * v.z, v.y, -s * v.x + c * v.z)

        src = next(s for s in field.samples if abs(s.s - 10.0) < 1e-9 and s.phi == 0.0)
        expected = rot_y(src.kg_world(), -alpha)
        assert (smp.kg_world() - expected).norm() <= 1e-11
        assert abs(smp.kg_world().norm() - 13.504) < 5e-4

    def test_length_preserved_exactly(self):
        field = record(Wave.diverging(Vec3(-20, 3, -35), LAM), Wave.converging(Vec3(5, 0, 60), LAM),
                       FLAT, PolarGrid(6, 10))
        for proj in (Projection.orthogonal(), Projection.from_center_z(100.0)):
            out = induce_forward(field, CAP, proj)
            for src, dst in zip(field.samples, out.samples):
                assert dst.magnitude == src.magnitude  # copied coordinates
                assert abs(dst.kg_world().norm() - src.kg_world().norm()) <= 1e-12 * max(1.0, src.magnitude)

    def test_normal_angle_invariant(self):
        field = record(W0, W65, FLAT, PolarGrid(5, 8))
        out = induce_forward(field, CAP, Projection.from_center_z(200.0))
        for src, dst in zip(field.samples, out.samples):
            cos_src = src.kg_world().dot(src.n) / src.magnitude
            cos_dst = dst.kg_world().dot(dst.n) / dst.magnitude
            assert abs(cos_src - cos_dst) <= 1e-12

    def test_requires_planar_source(self):
        curved = record(W0, W65, CAP, PolarGrid(3, 6))
        with pytest.raises(ValueError):
            induce_forward(curved, CAP, Projection.orthogonal())

    def test_projection_failure_reports_sample_index(self):
        wide = SurfaceProfile.planar(30.0)
        field = record(W0, W65, wide, PolarGrid(3, 4))  # rim samples at s = 30
        with pytest.raises(NoIntersection, match="sample"):
            induce_forward(field, CAP, Projection.from_center_z(100.0))

    def test_rotational_equivariance(self):
        delta = math.radians(30.0)
        w1r = Wave.plane(_rot_z(W65.direction, delta), LAM)
        field = record(W65, W0, FLAT, PolarGrid(4, 12))
        field_r = record(w1r, W0, FLAT, PolarGrid(4, 12))
        out = induce_forward(field, CAP, Projection.from_center_z(150.0))
        out_r = induce_forward(field_r, CAP, Projection.from_center_z(150.0))
        by_fp = {(round(s.s, 9), round(s.phi, 9)): s for s in out_r.samples}
        for smp in out.samples:
            phi_rot = (smp.phi + delta) % (2 * math.pi)
            key = (round(smp.s, 9), round(phi_rot, 9))
            if key not in by_fp:  # rotated grid only realigns at shared azimuths
                continue
            twin = by_fp[key]
            assert (twin.kg_world() - _rot_z(smp.kg_world(), delta)).norm() < 1e-10


class TestInverse:
    def test_round_trip_from_plane(self):
        field = record(W0, W65, FLAT, PolarGrid(5, 12))
        for proj in (Projection.orthogonal(), Projection.from_center_z(100.0), Projection.from_center_z(1000.0)):
            fwd = induce_forward(field, CAP, proj)
            back = induce_inverse(fwd, proj)
            _fields_equal(field, back)
            again = induce_forward(back, CAP, proj)
            _fields_equal(fwd, again)

    def test_round_trip_from_curved_target(self):
        target = record(Wave.diverging(Vec3(0, 0, -20.0), LAM), Wave.converging(Vec3(0, 0, 30.0), LAM),
                        CAP, PolarGrid(5, 12))
        for proj in (Projection.orthogonal(), Projection.from_center_z(500.0)):
            planar = induce_inverse(target, proj)
            assert planar.carrier.kind == "planar"
            assert all(s.position.z == 0.0 for s in planar.samples)
            again = induce_forward(planar, CAP, proj)
            _fields_equal(target, again)

    def test_planar_orthogonal_is_identity(self):
        field = record(W0, W65, FLAT, PolarGrid(3, 6))
        out = induce_inverse(field, Projection.orthogonal())
        _fields_equal(field, out, pos_tol=0.0, coord_tol=0.0)

    def test_plane_domain_covers_rim_preimage(self):
        target = record(W0, W65, CAP, PolarGrid(3, 6))
        cz = 100.0
        out = induce_inverse(target, Projection.from_center_z(cz))
        expected = 10.0 * cz / (cz - CAP.radial_height(10.0))
        assert abs(out.carrier.domain_radius - expected) < 1e-12
        assert max(s.s for s in out.samples) <= out.carrier.domain_radius * (1 + 1e-12)

    def test_center_below_rim_has_no_preimage(self):
        from hoedeform.errors import NoPreimage
        target = record(W0, W65, CAP, PolarGrid(3, 6))
        with pytest.raises(NoPreimage):
            induce_inverse(target, Projection.from_center_z(0.5))  # rim height ~1.01


class TestRescale:
    def test_identity(self):
        field = record(W0, W65, FLAT, PolarGrid(3, 6))
        out = rescale(field, 1.0)
        _fields_equal(field, out, pos_tol=0.0, coord_tol=0.0)

    def test_uniform_shrinkage_compensation(self):
        field = record(W0, W65, FLAT, PolarGrid(3, 6))
        out = rescale(field, 1.02)
        src, dst = field.magnitudes, out.magnitudes
        assert np.all(np.abs(dst - 1.02 * src) <= 1e-12 * src)
        # fringe period 2*pi/|kg| of the world-space grating vectors
        period_src = 2.0 * math.pi / norms(combine(*field.frames(), *field.g.T))
        period_dst = 2.0 * math.pi / norms(combine(*out.frames(), *out.g.T))
        assert np.all(np.abs(period_dst * 1.02 - period_src) <= 1e-12 * period_src)

    def test_radial_factor_closed_form(self):
        field = record(W0, W65, FLAT, PolarGrid(4, 6))
        out = rescale(field, lambda f: 1.0 + 0.001 * f.s)
        src = field.magnitudes
        assert np.all(np.abs(out.magnitudes - (1.0 + 0.001 * field.s) * src) <= 1e-12 * np.maximum(1.0, src))

    def test_non_positive_factor_rejected(self):
        field = record(W0, W65, FLAT, PolarGrid(2, 4))
        with pytest.raises(NonPositiveFactor):
            rescale(field, 0.0)
        with pytest.raises(NonPositiveFactor):
            rescale(field, lambda f: np.full(len(f), -1.0))

    @pytest.mark.parametrize("values", [lambda f: 1.0, lambda f: np.ones(len(f) - 1),
                                        lambda f: np.ones((len(f), 1))], ids=["scalar", "short", "column"])
    def test_factor_of_the_wrong_shape_rejected(self, values):
        field = record(W0, W65, FLAT, PolarGrid(2, 4))
        with pytest.raises(ValueError, match="one per sample"):
            rescale(field, values)


class TestDesignTargetField:
    """A field diffracting ``probe`` into ``desired`` is recorded with w1 = probe, w2 = desired."""

    def test_uniform_case_equals_recording(self):
        # plane waves: every sample carries the same kg = k_desired - k_probe
        designed = record(W0, W65, FLAT, PolarGrid(4, 8))
        want = local_wavevector(W65, Vec3(0, 0, 0)) - local_wavevector(W0, Vec3(0, 0, 0))
        for smp in designed.samples:
            assert (smp.kg_world() - want).norm() <= 1e-12 * want.norm()

    def test_probe_equals_desired_gives_zero_field(self):
        designed = record(W65, W65, FLAT, PolarGrid(3, 6))
        assert all(s.magnitude == 0.0 for s in designed.samples)

    def test_point_source_pair_aligns_with_isosurface_normal(self):
        probe = Wave.diverging(Vec3(0, 0, -20.0), LAM)
        desired = Wave.converging(Vec3(0, 0, 30.0), LAM)
        designed = record(probe, desired, FLAT, PolarGrid(5, 8))
        for smp in designed.samples:
            if smp.magnitude == 0.0:
                continue  # on the focal axis probe and desired coincide: kg = 0
            r = smp.position
            u1 = (r - Vec3(0, 0, -20.0)).normalized()
            u2 = (r - Vec3(0, 0, 30.0)).normalized()
            n_out = u1 + u2
            kg = smp.kg_world()
            residual = kg.cross(n_out).norm() / (kg.norm() * n_out.norm())
            assert residual < 1e-12
            assert kg.dot(n_out) < 0.0  # anti-parallel orientation

    def test_on_bragg_replay_returns_desired_direction(self):
        probe = Wave.diverging(Vec3(0, 0, -20.0), LAM)
        desired = Wave.converging(Vec3(0, 0, 30.0), LAM)
        designed = record(probe, desired, CAP, PolarGrid(4, 8))
        kd = trace_field(designed, probe, mode="basic").kd
        want = local_wavevectors(desired, designed.pos)
        assert np.all(norms(kd - want) <= 1e-12 * norms(want))


class TestResample:
    def test_constant_field_resamples_exactly_on_matching_azimuths(self):
        # interpolation acts on frame coordinates, which are constant along s
        # on a planar carrier; matching azimuths make the resample exact
        field = record(W0, W65, FLAT, PolarGrid(5, 8))
        out = resample_field(field, PolarGrid(7, 8, s_max=9.0))
        ref = next(iter(field.samples)).kg_world()
        for smp in out.samples:
            assert (smp.kg_world() - ref).norm() <= 1e-11

    def test_axisymmetric_field_resamples_at_new_azimuths(self):
        # on-axis point-source recording: frame coordinates depend on s only,
        # so azimuth interpolation is exact even between source azimuths
        field = record(Wave.diverging(Vec3(0, 0, -20.0), LAM), Wave.converging(Vec3(0, 0, 30.0), LAM),
                       CAP, PolarGrid(6, 8))
        out = resample_field(field, PolarGrid(4, 12, s_max=9.0, include_vertex=False))
        # coordinates depend on s only: every target ring carries one value
        by_ring = {}
        for smp in out.samples:
            by_ring.setdefault(round(smp.s, 12), []).append(smp.coords)
        for coords in by_ring.values():
            ref = coords[0]
            for c in coords[1:]:
                assert max(abs(c[0] - ref[0]), abs(c[1] - ref[1]), abs(c[2] - ref[2])) <= 1e-12
        # radial linear interpolation tracks the exact field to truncation error
        for smp in out.samples:
            r = smp.position
            kg_exact = (local_wavevector(Wave.converging(Vec3(0, 0, 30.0), LAM), r)
                        - local_wavevector(Wave.diverging(Vec3(0, 0, -20.0), LAM), r))
            assert (smp.kg_world() - kg_exact).norm() <= 2e-2 * kg_exact.norm()

    def test_linear_radial_profile_interpolates(self):
        base = record(W0, W65, FLAT, PolarGrid(10, 8))
        graded = rescale(base, lambda f: 1.0 + 0.05 * f.s)
        out = resample_field(graded, PolarGrid(6, 8, s_max=8.5, include_vertex=False))
        k0 = float(base.magnitudes[1])
        for smp in out.samples:
            expected = (1.0 + 0.05 * smp.s) * k0
            assert abs(smp.magnitude - expected) <= 1e-6 * expected

    def test_outside_radial_range_rejected(self):
        field = record(W0, W65, FLAT, PolarGrid(4, 8, s_max=5.0))
        with pytest.raises(DomainError):
            resample_field(field, PolarGrid(3, 8, s_max=9.0))

    def test_requires_polar_structure(self):
        from hoedeform.recording import CartesianGrid
        field = record(W0, W65, FLAT, CartesianGrid(4, 4, 6.0))
        with pytest.raises(ValueError):
            resample_field(field, PolarGrid(3, 8, s_max=5.0))


SHIPPED = json.loads((Path(__file__).resolve().parent.parent / "src" / "hoedeform" / "configs"
                      / "combiner_deformed.json").read_text())
PROJECTIONS = {"orthogonal": "orthogonal", "central_500": {"center_z_mm": 500.0}}


def _bent_scene(origin, target, domain, grid, projection):
    """combiner_deformed.json with the probe and w1 diverging from ``origin``,
    w2 converging to ``target``, the aperture ``domain`` (mm) and the polar
    ``grid`` (n_s, n_phi); the cap's radius is set per bend."""
    doc = copy.deepcopy(SHIPPED)
    rec = doc["recording"]
    rec["w1"]["origin_mm"] = doc["probe"]["origin_mm"] = list(origin)
    rec["w2"]["target_mm"] = list(target)
    rec["carrier"]["domain_radius_mm"] = doc["deformation"]["target_profile"]["domain_radius_mm"] = domain
    rec["grid"]["n_s"], rec["grid"]["n_phi"] = grid
    doc["deformation"]["projection"] = PROJECTIONS[projection]
    return doc


def _focal_shifts(doc, radii):
    """R*(z*_flat - z*_bent) of the x and y spot minima for each cap radius R."""
    cfg = parse_scene_config(doc)
    rec, bend = cfg.recording, cfg.deformation
    flat = record(rec.w1, rec.w2, rec.carrier, rec.grid)
    z = doc["recording"]["w2"]["target_mm"][2]

    def z_star(field):
        scan = focal_scan(trace_field(field, cfg.probe).rays(), (z - 20.0, z + 20.0), 41)
        return np.array([scan.z_star_x, scan.z_star_y])

    z_flat = z_star(flat)
    return [r * (z_flat - z_star(induce_forward(flat, SurfaceProfile.sphere_cap(r, rec.carrier.domain_radius),
                                                bend.projection))) for r in radii]


class TestParaxialBend:
    """The focal shift a bend adds, against Coddington's equations with the
    substrate term (``oracles.bend_focal_shift_limits``)."""

    @pytest.mark.parametrize("projection", sorted(PROJECTIONS))
    @pytest.mark.parametrize("origin, target", [
        ((-30.0, 0.0, -40.0), (0.0, 0.0, 80.0)),  # the shipped combiner: t_d = 0
        ((-30.0, 0.0, -40.0), (20.0, 0.0, 80.0)),
        ((-40.0, 0.0, -30.0), (-15.0, 0.0, 70.0)),
        ((0.0, 0.0, -50.0), (25.0, 0.0, 60.0)),  # cos t_d < cos t_i: the focus moves away
    ], ids=["combiner", "target_x20", "target_x-15", "normal_probe"])
    def test_small_aperture_shift_extrapolates_to_the_paraxial_limit(self, origin, target, projection):
        doc = _bent_scene(origin, target, 0.5, (40, 64), projection)
        radii = (6400.0, 25600.0)
        near, far = _focal_shifts(doc, radii)
        # linear in 1/R through both radii, evaluated at 1/R = 0
        limit = (far * radii[1] - near * radii[0]) / (radii[1] - radii[0])
        want = np.array(oracles.bend_focal_shift_limits(doc))
        assert np.all(np.abs(limit - want) <= 1e-3 * np.abs(want)), (limit, want)

    @pytest.mark.parametrize("projection", sorted(PROJECTIONS))
    def test_shipped_aperture_shift_converges_at_first_order(self, projection):
        # the aperture adds a term in 1/R, so each doubling of R halves the step
        doc = _bent_scene((-30.0, 0.0, -40.0), (0.0, 0.0, 80.0), 10.0, (100, 160), projection)
        c = _focal_shifts(doc, (1600.0, 3200.0, 6400.0))
        ratio = (c[0] - c[1]) / (c[1] - c[2])
        assert np.all((1.8 <= ratio) & (ratio <= 2.2)), ratio
