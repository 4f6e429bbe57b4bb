import math

import numpy as np
import pytest
from scipy.optimize import brentq

import oracles
from hoedeform.config import parse_profile
from hoedeform.deformation import induce_forward
from hoedeform.errors import ConfigError, DomainError, NoIntersection, NoPreimage, NotOnSurface
from hoedeform.geometry import Vec2, Vec3
from hoedeform.surfaces import (
    DOMAIN_GUARD,
    LensSpec,
    Projection,
    SurfaceProfile,
    check_bijective,
    evaluate,
    inverse_project,
    lensmaker_focal,
    project,
    project_points,
)
from hoedeform.recording import PolarGrid, record
from hoedeform.waves import Wave, Wavelength

CAP50 = SurfaceProfile.sphere_cap(50.0, 20.0)
FLAT = SurfaceProfile.planar(20.0)


def _bisect_projection(cz, profile, p, iters=200):
    """Independent bisection oracle for the central projection."""
    rp = math.hypot(p.x, p.y)

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
    return Vec3(tau * p.x, tau * p.y, (1.0 - tau) * cz)


def _brentq_projection(cz, profile, p):
    """Slow reference for the central projection: Brent's method on the
    segment parameter, then one Newton step."""
    rp = math.hypot(p.x, p.y)
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
    return Vec3(tau * p.x, tau * p.y, (1.0 - tau) * cz)


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
        assert evaluate(FLAT, Vec2(3.0, 4.0)).as_tuple() == (3.0, 4.0, 0.0)

    def test_evaluate_sphere_cap(self):
        q = evaluate(CAP50, Vec2(10.0, 0.0))
        assert abs(q.z - (50.0 - math.sqrt(2500.0 - 100.0))) == 0.0
        assert abs(q.z - 1.0102) < 1e-4

    def test_evaluate_vertex(self):
        assert evaluate(CAP50, Vec2(0.0, 0.0)).as_tuple() == (0.0, 0.0, 0.0)

    def test_evaluate_outside_domain(self):
        with pytest.raises(DomainError):
            evaluate(FLAT, Vec2(25.0, 0.0))

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
        p = Vec3(7.0, -2.0, 0.0)
        assert project(Projection.orthogonal(), FLAT, p).as_tuple() == (7.0, -2.0, 0.0)

    def test_orthogonal_on_sphere(self):
        q = project(Projection.orthogonal(), CAP50, Vec3(10.0, 0.0, 0.0))
        assert abs(q.z - 1.0102) < 1e-4 and (q.x, q.y) == (10.0, 0.0)

    def test_input_must_be_in_plane(self):
        with pytest.raises(DomainError):
            project(Projection.orthogonal(), CAP50, Vec3(1.0, 0.0, 0.5))

    def test_central_matches_bisection_oracle(self):
        proj = Projection.from_center_z(100.0)
        for p in (Vec3(10.0, 0.0, 0.0), Vec3(-6.0, 8.0, 0.0), Vec3(3.0, -14.0, 0.0)):
            q = project(proj, CAP50, p)
            oracle = _bisect_projection(100.0, CAP50, p)
            assert (q - oracle).norm() < 1e-9
            # on the segment and on the graph
            s = math.hypot(q.x, q.y)
            assert abs(q.z - CAP50.radial_height(s)) < 1e-10
            t = q.x / p.x if p.x != 0 else q.y / p.y
            seg = Vec3(0, 0, 100.0) + (p - Vec3(0, 0, 100.0)) * t
            assert (q - seg).norm() < 1e-9

    def test_central_fixes_axis_point(self):
        q = project(Projection.from_center_z(100.0), CAP50, Vec3(0.0, 0.0, 0.0))
        assert q.as_tuple() == (0.0, 0.0, 0.0)

    def test_central_misses_domain(self):
        # plane point beyond the rim preimage: the segment crosses the domain
        # boundary above the graph and never meets it
        proj = Projection.from_center_z(100.0)
        assert 30.0 > 20.0 * 100.0 / (100.0 - CAP50.radial_height(20.0))
        with pytest.raises(NoIntersection):
            project(proj, CAP50, Vec3(30.0, 0.0, 0.0))

    def test_rotational_symmetry(self):
        rng = np.random.default_rng(3)
        proj = Projection.from_center_z(120.0)
        for _ in range(30):
            r = rng.uniform(0.5, 18.0)
            phi = rng.uniform(0, 2 * math.pi)
            d = rng.uniform(0, 2 * math.pi)
            q0 = project(proj, CAP50, Vec3(r * math.cos(phi), r * math.sin(phi), 0.0))
            q1 = project(proj, CAP50, Vec3(r * math.cos(phi + d), r * math.sin(phi + d), 0.0))
            c, s = math.cos(d), math.sin(d)
            rot = Vec3(c * q0.x - s * q0.y, s * q0.x + c * q0.y, q0.z)
            assert (q1 - rot).norm() < 1e-10

    def test_converges_to_orthogonal_for_distant_centers(self):
        p = Vec3(10.0, 0.0, 0.0)
        q_inf = project(Projection.orthogonal(), CAP50, p)
        errs = []
        for z in (1e3, 1e5, 1e7, 1e9):
            q = project(Projection.from_center_z(z), CAP50, p)
            errs.append((q - q_inf).norm())
        assert all(b < a for a, b in zip(errs, errs[1:]))  # monotone decreasing
        assert errs[-1] < 1e-6


class TestProjectionAgainstBrentq:
    """``project`` against its slow reference, within 1e-12 relative."""

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
        assert (q - ref).norm() <= 1e-12 * ref.norm(), (q, ref)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_interior_points(self, case):
        profile, cz = self.CASES[case]
        proj = Projection.from_center_z(cz)
        r_rim = inverse_project(proj, profile, evaluate(profile, Vec2(profile.domain_radius, 0.0))).x
        for i in range(1, 41):
            r = r_rim * (i / 40.0) ** 2 * (1.0 - 1e-6)
            for phi in (0.3, 2.0, 4.5):
                p = Vec3(r * math.cos(phi), r * math.sin(phi), 0.0)
                self._assert_close(project(proj, profile, p), _brentq_projection(cz, profile, p))

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_rim_points(self, case):
        profile, cz = self.CASES[case]
        proj = Projection.from_center_z(cz)
        d = profile.domain_radius
        for phi in (0.0, 0.7, math.pi, 5.1):
            q = evaluate(profile, Vec2(d * math.cos(phi), d * math.sin(phi)))
            p = inverse_project(proj, profile, q)
            got = project(proj, profile, p)
            self._assert_close(got, _brentq_projection(cz, profile, p))
            assert (got - q).norm() <= 1e-12 * q.norm()

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_beyond_rim_has_no_intersection(self, case):
        profile, cz = self.CASES[case]
        proj = Projection.from_center_z(cz)
        r_rim = inverse_project(proj, profile, evaluate(profile, Vec2(profile.domain_radius, 0.0))).x
        p = Vec3(0.0, -r_rim * 1.01, 0.0)
        with pytest.raises(NoIntersection):
            _brentq_projection(cz, profile, p)
        with pytest.raises(NoIntersection):
            project(proj, profile, p)

    CUSTOM = sorted(k for k in CASES if k.startswith("custom"))

    @pytest.mark.parametrize("case", CUSTOM)
    def test_vectorized_custom_profiles(self, case):
        """All interior and rim points in one array call, each row against brentq."""
        profile, cz = self.CASES[case]
        proj = Projection.from_center_z(cz)
        d = profile.domain_radius
        r_rim = inverse_project(proj, profile, evaluate(profile, Vec2(d, 0.0))).x
        points = [Vec3(r * math.cos(phi), r * math.sin(phi), 0.0)
                  for r in (r_rim * (i / 40.0) ** 2 * (1.0 - 1e-6) for i in range(1, 41)) for phi in (0.3, 2.0, 4.5)]
        points += [inverse_project(proj, profile, evaluate(profile, Vec2(d * math.cos(phi), d * math.sin(phi))))
                   for phi in (0.0, 0.7, math.pi, 5.1)]
        got = project_points(proj, profile, np.array([(0.0, 0.0, 0.0)] + [p.as_tuple() for p in points]))
        assert got[0].tolist() == [0.0, 0.0, profile.radial_height(0.0)]
        for p, q in zip(points, got[1:].tolist()):
            self._assert_close(Vec3(*q), _brentq_projection(cz, profile, p))

    @pytest.mark.parametrize("case", CUSTOM)
    def test_vectorized_beyond_rim_names_first_failing_sample(self, case):
        profile, cz = self.CASES[case]
        proj = Projection.from_center_z(cz)
        r_rim = inverse_project(proj, profile, evaluate(profile, Vec2(profile.domain_radius, 0.0))).x
        radii = [0.3 * r_rim, 0.9 * r_rim, 1.01 * r_rim, 0.5 * r_rim, 1.2 * r_rim]
        points = np.array([(0.0, -r, 0.0) for r in radii])
        with pytest.raises(NoIntersection) as got:
            project_points(proj, profile, points)
        assert got.value.index == 2
        with pytest.raises(NoIntersection) as want:
            project(proj, profile, Vec3(*points[2]))
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
            project(Projection.from_center_z(1.5), BOWL, Vec3(1.0, 0.0, 0.0))


class TestInverseProject:
    def test_orthogonal_drops_z(self):
        q = evaluate(CAP50, Vec2(10.0, 0.0))
        assert inverse_project(Projection.orthogonal(), CAP50, q).as_tuple() == (10.0, 0.0, 0.0)

    def test_central_round_trip(self):
        proj = Projection.from_center_z(100.0)
        for p in (Vec3(10.0, 0.0, 0.0), Vec3(-4.0, 11.0, 0.0)):
            q = project(proj, CAP50, p)
            back = inverse_project(proj, CAP50, q)
            assert (back - p).norm() < 1e-10

    def test_round_trip_other_direction(self):
        proj = Projection.from_center_z(250.0)
        rng = np.random.default_rng(4)
        for _ in range(20):
            s = rng.uniform(0, 19.0)
            phi = rng.uniform(0, 2 * math.pi)
            q = evaluate(CAP50, Vec2(s * math.cos(phi), s * math.sin(phi)))
            p = inverse_project(proj, CAP50, q)
            again = project(proj, CAP50, p)
            assert (again - q).norm() < 1e-10

    def test_vertex_fixed(self):
        q = inverse_project(Projection.from_center_z(100.0), CAP50, Vec3(0.0, 0.0, 0.0))
        assert q.as_tuple() == (0.0, 0.0, 0.0)

    def test_not_on_surface(self):
        with pytest.raises(NotOnSurface):
            inverse_project(Projection.orthogonal(), CAP50, Vec3(10.0, 0.0, 5.0))

    def test_no_preimage_for_parallel_ray(self):
        # center height equals the point height: the ray never reaches z = 0
        s = math.sqrt(2500.0 - 49.5 ** 2)
        q = evaluate(CAP50, Vec2(s, 0.0))
        assert abs(q.z - 0.5) < 1e-12
        with pytest.raises(NoPreimage):
            inverse_project(Projection.from_center_z(q.z), CAP50, q)

    def test_no_preimage_for_center_below_point(self):
        s = math.sqrt(2500.0 - 49.5 ** 2)
        q = evaluate(CAP50, Vec2(s, 0.0))
        with pytest.raises(NoPreimage):
            inverse_project(Projection.from_center_z(0.25 * q.z), CAP50, q)


class TestCheckBijective:
    def test_orthogonal_passes(self):
        report = check_bijective(Projection.orthogonal(), CAP50, samples=64)
        assert report.passed and report.violation is None

    def test_central_above_passes(self):
        wide = SurfaceProfile.sphere_cap(50.0, 25.0)
        report = check_bijective(Projection.from_center_z(100.0), wide, samples=64)
        assert report.passed

    def test_low_center_fails(self):
        # center between the plane and the surface rim: rays graze the near
        # side of the dome and the outer annulus is unreachable
        wide = SurfaceProfile.sphere_cap(50.0, 25.0)  # rim height ~6.7
        report = check_bijective(Projection.from_center_z(3.0), wide, samples=64)
        assert not report.passed
        assert "no plane preimage" in report.violation


class TestLensmaker:
    def test_symmetric_radii_thick(self):
        assert abs(lensmaker_focal(LensSpec(1.5, 100.0, 100.0, 3.0)) - 20000.0) < 1e-9

    def test_thin_equal_radii_has_no_power(self):
        assert lensmaker_focal(LensSpec(1.5, 100.0, 100.0, 0.0)) == math.inf

    def test_thin_lens_limit(self):
        assert abs(lensmaker_focal(LensSpec(1.5, 100.0, 200.0, 0.0)) - 400.0) < 1e-9

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            LensSpec(1.0, 100.0, 100.0, 1.0)
        with pytest.raises(ValueError):
            LensSpec(1.5, -100.0, 100.0, 1.0)
        with pytest.raises(ValueError):
            LensSpec(1.5, 100.0, 100.0, -1.0)
