import json
import math
import warnings

import numpy as np
import pytest
from scipy.optimize import brentq

import oracles
from hoedeform import cli
from hoedeform.config import parse_profile
from hoedeform.deformation import induce_forward
from hoedeform.errors import ConfigError, DomainError, NoIntersection, NoPreimage, NotOnSurface
from hoedeform.fieldio import load_field, save_field
from hoedeform.geometry import Vec3
from hoedeform.surfaces import (
    DOMAIN_GUARD,
    Projection,
    SurfaceProfile,
    inverse_project_points,
    project_points,
)
from hoedeform.recording import PolarGrid, record
from hoedeform.waves import Wave, Wavelength

CAP50 = SurfaceProfile.sphere_cap(50.0, 20.0)
FLAT = SurfaceProfile.planar(20.0)
ORTHO = Projection.orthogonal()


def _points(*xy) -> np.ndarray:
    """Plane points (N x 3, z = 0) from (x, y) pairs."""
    return np.array([(x, y, 0.0) for x, y in xy], dtype=float).reshape(-1, 3)


def _graph_points(profile, *xy) -> np.ndarray:
    """Points (x, y, h(|(x, y)|)) of the graph above the (x, y) pairs."""
    x, y = np.array(xy, dtype=float).reshape(-1, 2).T
    return np.column_stack((x, y, profile.heights(np.hypot(x, y))))


def _rim_preimage_radius(proj, profile) -> float:
    """Plane radius that ``proj`` maps onto the rim of ``profile``."""
    return float(inverse_project_points(proj, profile, _graph_points(profile, (profile.domain_radius, 0.0)))[0, 0])


def _bisect_projection(cz, profile, p, iters=200):
    """Independent bisection oracle for the central projection."""
    rp = math.hypot(p[0], p[1])

    def gap(tau):
        return (1.0 - tau) * cz - profile.radial_height(min(tau * rp, profile.domain_radius))

    lo, hi = 0.0, min(1.0, profile.domain_radius / rp)
    assert gap(lo) > 0.0 >= gap(hi)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if gap(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    tau = 0.5 * (lo + hi)
    return np.array((tau * p[0], tau * p[1], (1.0 - tau) * cz))


def _brentq_projection(cz, profile, p):
    """Slow reference for the central projection: Brent's method on the
    segment parameter, then one Newton step; the point is placed on the graph
    at the solved radius. The segment's own z = (1 - tau)*Cz is off by more
    than 1e-12 relative near the axis for Cz = 500 (against a 50-digit root)."""
    rp = math.hypot(p[0], p[1])
    d_dom = profile.domain_radius

    def gap(tau):
        return (1.0 - tau) * cz - profile.radial_height(min(tau * rp, d_dom))

    tau_hi = min(1.0, (d_dom / rp) * (1.0 + DOMAIN_GUARD))
    if gap(tau_hi) > 0.0:
        raise NoIntersection("segment leaves the domain before meeting the graph")
    if gap(tau_hi) == 0.0:
        tau = tau_hi
    else:
        tau = brentq(gap, 0.0, tau_hi, xtol=1e-14, rtol=8.9e-16, maxiter=200)
        dg = -cz - profile.radial_slope(min(tau * rp, d_dom)) * rp
        if dg != 0.0 and 0.0 <= tau - gap(tau) / dg <= tau_hi:
            tau = tau - gap(tau) / dg
    return np.array((tau * p[0], tau * p[1], profile.radial_height(tau * rp)))


def _quartic(s):
    return s * s / 40.0 + s ** 4 / 2e4


def _quartic_slope(s):
    return s / 20.0 + s ** 3 / 5e3


QUARTIC = SurfaceProfile.custom_convex(_quartic, 20.0, slope=_quartic_slope)
QUARTIC_FD = SurfaceProfile.custom_convex(_quartic, 20.0)
# raised bowl: h(0) = 2, so the center must clear 2 mm
BOWL = SurfaceProfile.custom_convex(lambda s: 2.0 + s * s / 60.0, 20.0, slope=lambda s: s / 30.0)


class TestProfiles:
    def test_evaluate_planar(self):
        assert _graph_points(FLAT, (3.0, 4.0)).tolist() == [[3.0, 4.0, 0.0]]

    def test_evaluate_sphere_cap(self):
        z = CAP50.heights(np.array([10.0]))[0]
        assert abs(z - (50.0 - math.sqrt(2500.0 - 100.0))) == 0.0
        assert abs(z - 1.0102) < 1e-4

    def test_evaluate_vertex(self):
        assert _graph_points(CAP50, (0.0, 0.0)).tolist() == [[0.0, 0.0, 0.0]]

    def test_evaluate_outside_domain(self):
        with pytest.raises(DomainError):
            FLAT.require_radii(np.array([25.0]))

    def test_sphere_cap_domain_must_fit(self):
        with pytest.raises(ValueError):
            SurfaceProfile.sphere_cap(50.0, 50.0)
        with pytest.raises(ValueError):
            SurfaceProfile.sphere_cap(50.0, -1.0)

    def test_custom_convex_rejects_concave(self):
        with pytest.raises(ValueError):
            SurfaceProfile.custom_convex(lambda s: math.sqrt(s), 10.0)

    def test_custom_convex_rejects_negative(self):
        with pytest.raises(ValueError):
            SurfaceProfile.custom_convex(lambda s: s - 5.0, 10.0)

    def test_custom_convex_rejects_inconsistent_slope(self):
        with pytest.raises(ValueError):
            SurfaceProfile.custom_convex(lambda s: s * s / 40.0, 10.0, slope=lambda s: s)

    def test_custom_convex_finite_difference_slope(self):
        prof = SurfaceProfile.custom_convex(lambda s: s * s / 40.0, 10.0)
        assert abs(prof.radial_slope(4.0) - 0.2) < 1e-6

    def test_convexity_guard_samples_second_difference(self):
        # piecewise kink that dips: fails the sampled second-difference test
        with pytest.raises(ValueError):
            SurfaceProfile.custom_convex(lambda s: abs(math.sin(s)), 10.0)

    def test_descriptor_round_trip(self):
        for prof in (FLAT, CAP50):
            back = parse_profile(prof.descriptor(), "profile")
            assert back.kind == prof.kind
            assert back.domain_radius == prof.domain_radius

    def test_custom_descriptor_not_reloadable(self):
        prof = SurfaceProfile.custom_convex(lambda s: s * s / 40.0, 10.0)
        with pytest.raises(ConfigError):
            parse_profile(prof.descriptor(), "profile")


class TestProjection:
    def test_center_must_be_on_axis_above_plane(self):
        with pytest.raises(ValueError):
            Projection(center=Vec3(1.0, 0.0, 100.0))
        with pytest.raises(ValueError):
            Projection.from_center_z(0.0)
        with pytest.raises(ValueError):
            Projection.from_center_z(-10.0)

    def test_orthogonal_on_planar_is_identity(self):
        assert project_points(ORTHO, FLAT, _points((7.0, -2.0))).tolist() == [[7.0, -2.0, 0.0]]

    def test_orthogonal_on_sphere(self):
        q = project_points(ORTHO, CAP50, _points((10.0, 0.0)))[0]
        assert abs(q[2] - 1.0102) < 1e-4 and (q[0], q[1]) == (10.0, 0.0)

    def test_input_must_be_in_plane(self):
        with pytest.raises(DomainError):
            project_points(ORTHO, CAP50, np.array([(1.0, 0.0, 0.5)]))

    def test_central_matches_bisection_oracle(self):
        p = _points((10.0, 0.0), (-6.0, 8.0), (3.0, -14.0))
        q = project_points(Projection.from_center_z(100.0), CAP50, p)
        for pi, qi in zip(p, q):
            assert np.linalg.norm(qi - _bisect_projection(100.0, CAP50, pi)) < 1e-9
            # on the segment and on the graph
            assert abs(qi[2] - CAP50.radial_height(math.hypot(qi[0], qi[1]))) < 1e-10
            t = qi[0] / pi[0] if pi[0] != 0 else qi[1] / pi[1]
            center = np.array((0.0, 0.0, 100.0))
            assert np.linalg.norm(qi - (center + (pi - center) * t)) < 1e-9

    def test_central_fixes_axis_point(self):
        assert project_points(Projection.from_center_z(100.0), CAP50, _points((0.0, 0.0))).tolist() == [
            [0.0, 0.0, 0.0]]

    def test_central_misses_domain(self):
        # plane point beyond the rim preimage: the segment crosses the domain
        # boundary above the graph and never meets it
        assert 30.0 > 20.0 * 100.0 / (100.0 - CAP50.radial_height(20.0))
        with pytest.raises(NoIntersection):
            project_points(Projection.from_center_z(100.0), CAP50, _points((30.0, 0.0)))

    def test_rotational_symmetry(self):
        rng = np.random.default_rng(3)
        proj = Projection.from_center_z(120.0)
        r = rng.uniform(0.5, 18.0, 30)
        phi = rng.uniform(0, 2 * math.pi, 30)
        d = rng.uniform(0, 2 * math.pi, 30)
        q0 = project_points(proj, CAP50, _points(*zip(r * np.cos(phi), r * np.sin(phi))))
        q1 = project_points(proj, CAP50, _points(*zip(r * np.cos(phi + d), r * np.sin(phi + d))))
        c, s = np.cos(d), np.sin(d)
        rot = np.column_stack((c * q0[:, 0] - s * q0[:, 1], s * q0[:, 0] + c * q0[:, 1], q0[:, 2]))
        assert np.linalg.norm(q1 - rot, axis=1).max() < 1e-10

    def test_converges_to_orthogonal_for_distant_centers(self):
        lam = Wavelength(500.0)
        field = record(Wave.plane(Vec3(0, 0, 1), lam), Wave.plane(Vec3(0.6, 0, 0.8), lam),
                       SurfaceProfile.planar(10.0), PolarGrid(4, 8))
        p = _points((10.0, 0.0))
        for profile in (CAP50, QUARTIC):
            q_inf = project_points(ORTHO, profile, p)[0]
            errs = []
            for z in (1e3, 1e5, 1e7, 1e9, 1e12, 1e200):
                q = project_points(Projection.from_center_z(z), profile, p)[0]
                errs.append(np.linalg.norm(q - q_inf))
                # on the carrier however far the center
                assert abs(q[2] - profile.radial_height(math.hypot(q[0], q[1]))) <= 1e-10
            assert all(b < a for a, b in zip(errs, errs[1:]))  # monotone decreasing
            assert errs[3] < 1e-6
            # a whole field lands on the carrier too
            for z in (1e7, 1e12, 1e200):
                bent = induce_forward(field, profile, Projection.from_center_z(z))
                on_graph = profile.heights(np.hypot(bent.pos[:, 0], bent.pos[:, 1]))
                assert np.abs(bent.pos[:, 2] - on_graph).max() <= 1e-10

    @pytest.mark.parametrize("r", [1e156, 1e200, 1e300])
    def test_distant_plane_point_meets_the_cap_at_the_center_height(self, r):
        # the segment from (0, 0, 0.5) to a far plane point is all but the line
        # z = 0.5, which meets the R = 50 sphere at s^2 = 50^2 - 49.5^2 = 49.75
        cap = SurfaceProfile.sphere_cap(50.0, 10.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            q = project_points(Projection.from_center_z(0.5), cap, _points((r, 0.0)))[0]
        want = np.array([math.sqrt(49.75), 0.0, 0.5])
        assert np.linalg.norm(q - want) <= 1e-12 * np.linalg.norm(want)
        assert abs(q[2] - cap.radial_height(math.hypot(q[0], q[1]))) <= 1e-10


# A cap smaller than 1 mm, so max(Cz, R) < 1, and its custom_convex copy.
SMALL_CAP = SurfaceProfile.sphere_cap(0.9, 0.85)
SMALL_CAP_CUSTOM = SurfaceProfile.custom_convex(lambda s: 0.9 - math.sqrt(0.81 - s * s), 0.85,
                                                lambda s: s / math.sqrt(0.81 - s * s))


@pytest.mark.parametrize("profile", [SMALL_CAP, SMALL_CAP_CUSTOM], ids=["cap", "custom"])
@pytest.mark.parametrize("r", [1e307, 1e308, 1.7e308])
def test_plane_point_near_the_float_range_meets_a_small_cap_at_the_center_height(profile, r):
    # the line z = 0.5 meets the R = 0.9 sphere at s^2 = 0.9^2 - 0.4^2 = 0.65
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        q = project_points(Projection.from_center_z(0.5), profile, _points((r, 0.0)))[0]
    want = np.array([math.sqrt(0.65), 0.0, 0.5])
    assert np.linalg.norm(q - want) <= 1e-12 * np.linalg.norm(want)


def test_deform_cli_bends_a_sample_near_the_float_range_onto_a_small_cap(tmp_path, capsys):
    lam = Wavelength(500.0)
    field = record(Wave.plane(Vec3(0, 0, 1), lam), Wave.plane(Vec3(0.6, 0, 0.8), lam),
                   SurfaceProfile.planar(1.75e308), PolarGrid(1, 1, s_max=1.7e308))
    planar, cfg, out = tmp_path / "field.json", tmp_path / "scene.json", tmp_path / "out"
    save_field(field, planar)
    cfg.write_text(json.dumps({"wavelength": {"lambda_nm": 500.0}, "deformation": {
        "target_profile": {"kind": "sphere_cap", "radius_mm": 0.9, "domain_radius_mm": 0.85},
        "projection": {"center_z_mm": 0.5}}}))
    capsys.readouterr()
    assert cli.main(["deform", "--config", str(cfg), "--out", str(out), "--field", str(planar)]) == 0
    assert capsys.readouterr().err == ""
    bent = load_field(out / "field_deformed.json")
    assert bent.s.tolist() == [0.0, pytest.approx(math.sqrt(0.65), rel=1e-12)]
    assert np.linalg.norm(bent.pos[1] - (math.sqrt(0.65), 0.0, 0.5)) <= 1e-12


def test_deform_cli_bends_a_distant_sample_onto_the_cap(tmp_path, capsys):
    lam = Wavelength(500.0)
    field = record(Wave.plane(Vec3(0, 0, 1), lam), Wave.plane(Vec3(0.6, 0, 0.8), lam),
                   SurfaceProfile.planar(1e201), PolarGrid(1, 1, s_max=1e200, include_vertex=False))
    planar, cfg, out = tmp_path / "field.json", tmp_path / "scene.json", tmp_path / "out"
    save_field(field, planar)
    cfg.write_text(json.dumps({"wavelength": {"lambda_nm": 500.0}, "deformation": {
        "target_profile": {"kind": "sphere_cap", "radius_mm": 50.0, "domain_radius_mm": 10.0},
        "projection": {"center_z_mm": 0.5}}}))
    capsys.readouterr()
    assert cli.main(["deform", "--config", str(cfg), "--out", str(out), "--field", str(planar)]) == 0
    assert capsys.readouterr().err == ""
    bent = load_field(out / "field_deformed.json")
    want = np.array([math.sqrt(49.75), 0.0, 0.5])
    assert abs(bent.s[0] - want[0]) <= 1e-12 * want[0]
    assert np.linalg.norm(bent.pos[0] - want) <= 1e-12 * np.linalg.norm(want)


class TestProjectionAgainstBrentq:
    """``project_points`` against its slow reference, row by row, within 1e-12 relative."""

    CASES = {
        "cap_center_above_sphere": (CAP50, 500.0),  # Cz > 2R
        "cap_center_near_sphere": (CAP50, 100.5),
        "cap_center_inside_upper_half": (CAP50, 70.0),  # R < Cz < 2R
        "cap_center_below_sphere_center": (CAP50, 30.0),  # Cz < R
        "custom_quartic": (QUARTIC, 120.0),
        "custom_quartic_fd_slope": (QUARTIC_FD, 120.0),
        "custom_raised_bowl": (BOWL, 40.0),
    }

    @staticmethod
    def _assert_close(q, ref):
        assert np.linalg.norm(q - ref) <= 1e-12 * np.linalg.norm(ref), (q, ref)

    @staticmethod
    def _interior_points(r_rim):
        return _points(*((r * math.cos(phi), r * math.sin(phi))
                         for r in (r_rim * (i / 40.0) ** 2 * (1.0 - 1e-6) for i in range(1, 41))
                         for phi in (0.3, 2.0, 4.5)))

    @staticmethod
    def _rim_points(proj, profile):
        """Rim points of the graph and their plane preimages."""
        d = profile.domain_radius
        q = _graph_points(profile, *((d * math.cos(phi), d * math.sin(phi)) for phi in (0.0, 0.7, math.pi, 5.1)))
        return q, inverse_project_points(proj, profile, q)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_interior_points(self, case):
        profile, cz = self.CASES[case]
        proj = Projection.from_center_z(cz)
        p = self._interior_points(_rim_preimage_radius(proj, profile))
        for pi, qi in zip(p, project_points(proj, profile, p)):
            self._assert_close(qi, _brentq_projection(cz, profile, pi))

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_rim_points(self, case):
        profile, cz = self.CASES[case]
        proj = Projection.from_center_z(cz)
        q, p = self._rim_points(proj, profile)
        for pi, qi, got in zip(p, q, project_points(proj, profile, p)):
            self._assert_close(got, _brentq_projection(cz, profile, pi))
            assert np.linalg.norm(got - qi) <= 1e-12 * np.linalg.norm(qi)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_beyond_rim_has_no_intersection(self, case):
        profile, cz = self.CASES[case]
        proj = Projection.from_center_z(cz)
        p = _points((0.0, -_rim_preimage_radius(proj, profile) * 1.01))
        with pytest.raises(NoIntersection):
            _brentq_projection(cz, profile, p[0])
        with pytest.raises(NoIntersection):
            project_points(proj, profile, p)

    CUSTOM = sorted(k for k in CASES if k.startswith("custom"))

    @pytest.mark.parametrize("case", CUSTOM)
    def test_vectorized_custom_profiles(self, case):
        """All interior and rim points in one array call, each row against brentq."""
        profile, cz = self.CASES[case]
        proj = Projection.from_center_z(cz)
        points = np.vstack((self._interior_points(_rim_preimage_radius(proj, profile)),
                            self._rim_points(proj, profile)[1]))
        got = project_points(proj, profile, np.vstack((_points((0.0, 0.0)), points)))
        assert got[0].tolist() == [0.0, 0.0, profile.radial_height(0.0)]
        for p, q in zip(points, got[1:]):
            self._assert_close(q, _brentq_projection(cz, profile, p))

    @pytest.mark.parametrize("case", CUSTOM)
    def test_vectorized_beyond_rim_names_first_failing_sample(self, case):
        profile, cz = self.CASES[case]
        proj = Projection.from_center_z(cz)
        r_rim = _rim_preimage_radius(proj, profile)
        radii = [0.3 * r_rim, 0.9 * r_rim, 1.01 * r_rim, 0.5 * r_rim, 1.2 * r_rim]
        points = np.array([(0.0, -r, 0.0) for r in radii])
        with pytest.raises(NoIntersection) as got:
            project_points(proj, profile, points)
        assert got.value.index == 2
        with pytest.raises(NoIntersection) as want:
            project_points(proj, profile, points[2:3])
        assert str(got.value) == str(want.value)
        # in a field the error carries the scalar code's sample context
        field = record(Wave.plane(Vec3(0, 0, 1), Wavelength(500.0)), Wave.plane(Vec3(0.6, 0, 0.8), Wavelength(500.0)),
                       SurfaceProfile.planar(1.3 * r_rim), PolarGrid(6, 5))
        with pytest.raises(NoIntersection) as want:
            oracles.induce_forward_rows(oracles.field_rows(field), profile, proj)
        with pytest.raises(NoIntersection) as got:
            induce_forward(field, profile, proj)
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith("sample ") and int(str(got.value).split()[1]) > 0

    def test_center_below_raised_vertex_has_no_intersection(self):
        with pytest.raises(NoIntersection):
            project_points(Projection.from_center_z(1.5), BOWL, _points((1.0, 0.0)))


class TestInverseProject:
    def test_orthogonal_drops_z(self):
        q = _graph_points(CAP50, (10.0, 0.0))
        assert inverse_project_points(ORTHO, CAP50, q).tolist() == [[10.0, 0.0, 0.0]]

    def test_central_round_trip(self):
        proj = Projection.from_center_z(100.0)
        p = _points((10.0, 0.0), (-4.0, 11.0))
        back = inverse_project_points(proj, CAP50, project_points(proj, CAP50, p))
        assert np.linalg.norm(back - p, axis=1).max() < 1e-10

    def test_round_trip_other_direction(self):
        proj = Projection.from_center_z(250.0)
        rng = np.random.default_rng(4)
        s = rng.uniform(0, 19.0, 20)
        phi = rng.uniform(0, 2 * math.pi, 20)
        q = _graph_points(CAP50, *zip(s * np.cos(phi), s * np.sin(phi)))
        again = project_points(proj, CAP50, inverse_project_points(proj, CAP50, q))
        assert np.linalg.norm(again - q, axis=1).max() < 1e-10

    def test_vertex_fixed(self):
        q = inverse_project_points(Projection.from_center_z(100.0), CAP50, np.zeros((1, 3)))
        assert q.tolist() == [[0.0, 0.0, 0.0]]

    def test_not_on_surface(self):
        with pytest.raises(NotOnSurface):
            inverse_project_points(ORTHO, CAP50, np.array([(10.0, 0.0, 5.0)]))

    def test_no_preimage_for_parallel_ray(self):
        # center height equals the point height: the ray never reaches z = 0
        s = math.sqrt(2500.0 - 49.5 ** 2)
        q = _graph_points(CAP50, (s, 0.0))
        assert abs(q[0, 2] - 0.5) < 1e-12
        with pytest.raises(NoPreimage):
            inverse_project_points(Projection.from_center_z(q[0, 2]), CAP50, q)

    def test_no_preimage_for_center_below_point(self):
        s = math.sqrt(2500.0 - 49.5 ** 2)
        q = _graph_points(CAP50, (s, 0.0))
        with pytest.raises(NoPreimage):
            inverse_project_points(Projection.from_center_z(0.25 * q[0, 2]), CAP50, q)
