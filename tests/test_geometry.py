import math

import numpy as np
import pytest

from hoedeform.errors import DegenerateFrame, DomainError, HoedeformError
from hoedeform.geometry import Vec3, check_frames, check_orthonormal, combine, cross, dot, frames, norms
from hoedeform.recording import GratingSample, GratingVectorField, sample_context
from hoedeform.surfaces import SurfaceProfile


def _profiles():
    quartic = SurfaceProfile.custom_convex(
        lambda s: s * s / 40.0 + s ** 4 / 1e5,
        15.0,
        slope=lambda s: s / 20.0 + 4.0 * s ** 3 / 1e5,
    )
    return [
        SurfaceProfile.planar(20.0),
        SurfaceProfile.sphere_cap(50.0, 20.0),
        SurfaceProfile.sphere_cap(30.0, 12.0),
        quartic,
    ]


def _rot_z(v: np.ndarray, a: float) -> np.ndarray:
    """Rows of ``v`` (N x 3) rotated about z by the angles ``a`` (N)."""
    c, s = np.cos(a), np.sin(a)
    return np.column_stack((c * v[:, 0] - s * v[:, 1], s * v[:, 0] + c * v[:, 1], v[:, 2]))


def _frame_at(profile, s: float, phi: float):
    """The frame rows (t, b, n) of ``frames`` at one footprint."""
    t, b, n = frames(profile, np.array([s]), np.array([phi]))
    return t[0], b[0], n[0]


def _random_footprints(rng, profile, count):
    return rng.uniform(0, profile.domain_radius, count), rng.uniform(0, 2 * math.pi, count)


class TestVec3:
    def test_algebra(self):
        a, b = Vec3(1, 2, 3), Vec3(-2, 0.5, 4)
        assert (a + b).as_tuple() == (-1, 2.5, 7)
        assert (a - b).as_tuple() == (3, 1.5, -1)
        assert (2.0 * a).as_tuple() == (2, 4, 6)
        assert a.dot(b) == -2 + 1 + 12
        assert a.cross(b).as_tuple() == (2 * 4 - 3 * 0.5, 3 * -2 - 1 * 4, 1 * 0.5 - 2 * -2)
        assert abs(Vec3(3, 4, 0).norm() - 5.0) == 0.0

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Vec3(float("nan"), 0, 0)
        with pytest.raises(ValueError):
            Vec3(0, float("inf"), 0)

    def test_normalize_zero_raises(self):
        with pytest.raises(ValueError):
            Vec3(0, 0, 0).normalized()


class TestBuildFrame:
    """The closed-form frames of ``geometry.frames``."""

    def test_planar_phi0(self):
        t, b, n = _frame_at(SurfaceProfile.planar(20.0), 5.0, 0.0)
        assert t.tolist() == [1.0, 0.0, 0.0]
        assert np.linalg.norm(b - (0, 1, 0)) < 1e-15
        assert n.tolist() == [0.0, 0.0, -1.0]

    def test_planar_phi_quarter_turn(self):
        t, b, n = _frame_at(SurfaceProfile.planar(20.0), 5.0, math.pi / 2)
        assert np.linalg.norm(t - (0, 1, 0)) < 1e-12
        assert np.linalg.norm(b - (-1, 0, 0)) < 1e-12
        assert np.linalg.norm(n - (0, 0, -1)) < 1e-12

    def test_sphere_cap_matches_finite_differences(self):
        cap = SurfaceProfile.sphere_cap(50.0, 20.0)
        s, phi = 10.0, 0.0
        t, _, n = _frame_at(cap, s, phi)
        eps = 1e-6

        def curve(r):
            return np.array((r * math.cos(phi), r * math.sin(phi), cap.radial_height(r)))

        t_fd = (curve(s + eps) - curve(s - eps)) / (2 * eps)
        assert np.linalg.norm(t - t_fd / np.linalg.norm(t_fd)) < 1e-6

        def graph(x, y):
            return cap.radial_height(math.hypot(x, y))

        x0, y0 = s * math.cos(phi), s * math.sin(phi)
        hx = (graph(x0 + eps, y0) - graph(x0 - eps, y0)) / (2 * eps)
        hy = (graph(x0, y0 + eps) - graph(x0, y0 - eps)) / (2 * eps)
        n_fd = np.array((hx, hy, -1.0))
        assert np.linalg.norm(n - n_fd / np.linalg.norm(n_fd)) < 1e-6
        # analytic values at s = 10 on R = 50
        assert abs(t[0] - 0.9798) < 1e-4 and abs(t[2] - 0.2000) < 1e-12
        assert abs(n[0] - 0.2000) < 1e-12 and abs(n[2] + 0.9798) < 1e-4

    def test_vertex_limit_frame(self):
        cap = SurfaceProfile.sphere_cap(50.0, 20.0)
        phi = np.array([0.0, 1.0, 4.5])
        t, _, n = frames(cap, np.zeros(3), phi)
        assert np.abs(t - np.column_stack((np.cos(phi), np.sin(phi), np.zeros(3)))).max() < 1e-12
        assert np.abs(n - (0, 0, -1)).max() < 1e-12

    def test_outside_domain_raises(self):
        with pytest.raises(DomainError):
            _frame_at(SurfaceProfile.planar(5.0), 6.0, 0.0)

    def test_non_finite_slope_raises(self):
        bad = SurfaceProfile("custom_convex", lambda s: 0.0, lambda s: float("inf"), 10.0)
        with pytest.raises(DegenerateFrame):
            _frame_at(bad, 1.0, 0.0)

    def test_orthonormality_and_handedness(self):
        rng = np.random.default_rng(7)
        for profile in _profiles():
            t, b, n = frames(profile, *_random_footprints(rng, profile, 50))
            gram = np.column_stack((norms(t) - 1, norms(b) - 1, norms(n) - 1, dot(t, b), dot(t, n), dot(b, n)))
            assert np.abs(gram).max() < 1e-12
            assert np.abs(dot(t, cross(b, n)) + 1.0).max() < 1e-12  # built frames: t.(b x n) = -1
            assert np.array_equal(b, cross(t, n))

    def test_rotational_equivariance(self):
        rng = np.random.default_rng(8)
        for profile in _profiles():
            s = rng.uniform(0.1, profile.domain_radius, 20)
            phi = rng.uniform(0, 2 * math.pi, 20)
            d = rng.uniform(0, 2 * math.pi, 20)
            f0 = frames(profile, s, phi)
            f1 = frames(profile, s, np.mod(phi + d, 2 * math.pi))
            for v0, v1 in zip(f0, f1):
                assert norms(v1 - _rot_z(v0, d)).max() < 1e-10


def _check_one(t, b, n):
    """``check_orthonormal`` on one row triple."""
    check_orthonormal(*(np.array([v], dtype=float) for v in (t, b, n)))


class TestFrameValidation:
    def test_rejects_non_unit(self):
        with pytest.raises(ValueError, match="not unit length"):
            _check_one((2, 0, 0), (0, 1, 0), (0, 0, 1))

    def test_rejects_non_orthogonal(self):
        e = 1e-6
        with pytest.raises(ValueError, match="not orthogonal"):
            _check_one((1, 0, 0), (e, math.sqrt(1 - e * e), 0), (0, 0, 1))

    def test_accepts_right_handed_orthonormal(self):
        # closures accept any orthonormal triple, not only built frames
        _check_one((1, 0, 0), (0, 1, 0), (0, 0, 1))


def _decompose(v: np.ndarray, t, b, n) -> np.ndarray:
    """Frame coordinates (v.t, v.b, v.n) of the rows of ``v``, as ``record`` stores them."""
    return np.column_stack((dot(v, t), dot(v, b), dot(v, n)))


class TestDecomposeRecompose:
    def test_known_coordinates_in_flat_frame(self):
        t, b, n = frames(SurfaceProfile.planar(20.0), np.full(3, 5.0), np.zeros(3))
        v = np.array([(0.0, 0.0, -1.0), t[0], (3.0, 4.0, 0.0)])
        assert _decompose(v, t, b, n).tolist() == [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [3.0, 4.0, 0.0]]

    def test_recompose_trivials(self):
        t, b, n = frames(SurfaceProfile.planar(20.0), np.full(2, 5.0), np.zeros(2))
        assert combine(t, b, n, [0.0, 1.0], 0.0, 0.0).tolist() == [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]
        # the view of one sample recomposes the same way
        smp = GratingSample(5.0, 0.0, Vec3(5.0, 0.0, 0.0), Vec3(*t[0]), Vec3(*b[0]), Vec3(*n[0]), (1.0, 0.0, 0.0), 1.0)
        assert smp.kg_world().as_tuple() == (1.0, 0.0, 0.0)

    def test_round_trip_on_sphere_frame(self):
        frame = frames(SurfaceProfile.sphere_cap(50.0, 20.0), np.array([10.0]), np.array([0.0]))
        v = np.array([(0.9063, 0.0, -0.5774)]) * 11.81
        w = combine(*frame, *_decompose(v, *frame).T)
        assert norms(w - v)[0] <= 1e-12 * norms(v)[0]

    def test_round_trip_random(self):
        rng = np.random.default_rng(11)
        for profile in _profiles():
            frame = frames(profile, *_random_footprints(rng, profile, 50))
            v = rng.normal(0, 10, (50, 3))
            w = combine(*frame, *_decompose(v, *frame).T)
            assert np.all(norms(w - v) <= 1e-12 * np.maximum(1.0, norms(v)))

    def test_recompose_preserves_length(self):
        rng = np.random.default_rng(12)
        frame = frames(SurfaceProfile.sphere_cap(50.0, 20.0), np.full(100, 7.0), np.ones(100))
        g = rng.normal(0, 5, (100, 3))
        assert np.all(np.abs(norms(combine(*frame, *g.T)) - norms(g)) <= 1e-12 * np.maximum(1.0, norms(g)))


def _outcome(check, *args):
    """The type, message and sample index of what ``check(*args)`` raises, or None."""
    try:
        check(*args)
    except (ValueError, HoedeformError) as exc:
        return type(exc), str(exc), getattr(exc, "index", None)
    return None


def _flat_with_slopes(bad: float, later: float = 1e200) -> SurfaceProfile:
    """A flat carrier whose slope is 0.1 s below s = 3, ``bad`` at 3 and ``later`` beyond."""
    return SurfaceProfile("custom_convex", lambda s: 0.0, lambda s: 0.1 * s if s < 3.0 else bad if s == 3.0 else later,
                          10.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1e155, -1e155, 1.3e154, 1e-200])
def test_check_frames_raises_what_building_the_frames_raises(bad):
    """The closed-form check raises what ``frames`` (which builds the frames
    and runs check_orthonormal on them) raises: DegenerateFrame for a slope
    that is not finite, the orthonormality error of the first row whose
    slope squared overflows (1e155, and 1e200 after a slope of 1.3e154 or
    1e-200, whose squares are finite), and DomainError first."""
    s, phi = np.array([1.0, 2.0, 3.0, 4.0, 5.0]), np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    profile = _flat_with_slopes(bad)
    want = _outcome(frames, profile, s, phi)
    assert want is not None and want[2] == (2 if not math.isfinite(bad) or abs(bad) > 1.4e154 else 3)
    assert _outcome(check_frames, profile, s, phi) == want
    assert _outcome(check_frames, profile, s[:2], phi[:2]) is _outcome(frames, profile, s[:2], phi[:2]) is None
    outside = np.array([1.0, 3.0, 11.0])
    assert _outcome(check_frames, profile, outside, phi[:3]) == _outcome(frames, profile, outside, phi[:3])
    assert _outcome(frames, profile, outside, phi[:3])[0] is DomainError


@pytest.mark.parametrize("bad", [math.nan, math.inf, 1e155])
def test_a_field_names_the_sample_of_a_degenerate_frame(bad):
    """A field on such a carrier fails with the message of its frames, named by sample."""
    profile = _flat_with_slopes(bad)
    s, phi = np.array([1.0, 2.0, 3.0, 4.0]), np.array([0.0, 1.0, 2.0, 3.0])
    pos = np.column_stack((s * np.cos(phi), s * np.sin(phi), np.zeros(4)))
    with pytest.raises((ValueError, HoedeformError)) as got:
        GratingVectorField(profile, s, phi, pos, np.ones((4, 3)), {}, 500.0)

    def built():
        with sample_context(s, phi):
            frames(profile, s, phi)

    assert (type(got.value), str(got.value)) == _outcome(built)[:2]
