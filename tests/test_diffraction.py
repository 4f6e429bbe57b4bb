import math

import numpy as np
import pytest
from scipy.optimize import least_squares

from hoedeform.diffraction import (
    EVANESCENT,
    PASS_THROUGH,
    PROPAGATING,
    DiffractionResult,
    DiffractionStatus,
    closure,
    diffract,
)
from hoedeform.errors import SingularPoint
from hoedeform.geometry import Vec3, combine, dot, frames, norms
from hoedeform.recording import PolarGrid, record
from hoedeform.deformation import induce_forward
from hoedeform.scene import trace_field
from hoedeform.surfaces import Projection, SurfaceProfile
from hoedeform.waves import Wave, Wavelength, local_wavevectors

LAM = Wavelength(500.0)
W0 = Wave.plane(Vec3(0, 0, 1), LAM)
W65 = Wave.plane(Vec3(math.sin(math.radians(65)), 0.0, math.cos(math.radians(65))), LAM)
AXES = (np.array([[1.0, 0.0, 0.0]]), np.array([[0.0, 1.0, 0.0]]), np.array([[0.0, 0.0, 1.0]]))
ORIGIN = np.zeros((1, 3))


def random_frame(rng):
    """Orthonormal triple (t, b, n) from Gram-Schmidt of random vectors."""
    while True:
        a = rng.normal(0, 1, 3)
        b = rng.normal(0, 1, 3)
        if np.linalg.norm(a) > 0.1 and np.linalg.norm(np.cross(a, b)) > 0.1:
            break
    t = a / np.linalg.norm(a)
    b = b - t * t.dot(b)
    b = b / np.linalg.norm(b)
    return t, b, np.cross(t, b)


def random_frames(rng, count):
    """``count`` random frames as three N x 3 arrays."""
    return tuple(np.array(v) for v in zip(*(random_frame(rng) for _ in range(count))))


def sphere_search_oracle(kp, kg, frame):
    """Brute-force closure: search |v| = |kp| for minimal tangential mismatch.

    Coarse scan over direction angles in the frame followed by a
    least-squares refinement; the closed-form construction is never used.
    """
    t, b, n = frame
    w = kg + kp
    wt, wb, wn = w.dot(t), w.dot(b), w.dot(n)
    klen = np.linalg.norm(kp)

    def components(x):
        theta, psi = x
        st = math.sin(theta)
        return klen * st * math.cos(psi), klen * st * math.sin(psi), klen * math.cos(theta)

    def residual(x):
        vt, vb, _ = components(x)
        return [vt - wt, vb - wb]

    best = None
    for theta in np.linspace(0.02, math.pi - 0.02, 40):
        for psi in np.linspace(-math.pi, math.pi, 40, endpoint=False):
            r = residual((theta, psi))
            cost = r[0] * r[0] + r[1] * r[1]
            if best is None or cost < best[0]:
                best = (cost, (theta, psi))
    sol = least_squares(residual, best[1], xtol=3e-16, ftol=3e-16, gtol=3e-16)
    vt, vb, vn = components(sol.x)
    if (wn < 0.0) != (vn < 0.0) and wn != 0.0:
        vn = -vn
    if wn == 0.0:
        vn = abs(vn)
    return t * vt + b * vb + n * vn


class TestBasicClosure:
    def test_no_grating_passes_probe(self):
        kp = np.array([[1.0, 2.0, 3.0]])
        kd, status, _ = closure(kp, np.zeros((1, 3)), *AXES, "basic")
        assert np.array_equal(kd, kp) and status[0] == PROPAGATING

    def test_on_bragg_reconstructs_second_wave(self):
        k1 = local_wavevectors(W0, ORIGIN)
        k2 = local_wavevectors(W65, ORIGIN)
        kd, _, _ = closure(k1, k2 - k1, *AXES, "basic")
        assert norms(kd - k2)[0] < 1e-15

    def test_off_bragg_changes_length(self):
        kd, _, _ = closure(np.array([[6.0, 0.0, 8.0]]), np.array([[-2.0, 0.0, 3.0]]), *AXES, "basic")
        assert kd.tolist() == [[4.0, 0.0, 11.0]]
        assert abs(norms(kd)[0] - math.sqrt(137.0)) < 1e-12
        assert abs(norms(kd)[0] - 11.705) < 1e-3  # != |kp| = 10


class TestEnergyConservingClosure:
    def test_worked_example(self):
        kd, status, mismatch = closure(np.array([[6.0, 0.0, 8.0]]), np.array([[-2.0, 0.0, 3.0]]), *AXES, "energy")
        assert status[0] == PROPAGATING
        assert norms(kd - np.array([[4.0, 0.0, math.sqrt(84.0)]]))[0] < 1e-12
        assert abs(norms(kd)[0] - 10.0) < 1e-12
        assert abs(mismatch[0] - (math.sqrt(137.0) - 10.0)) < 1e-12

    def test_on_bragg_is_exact(self):
        k1 = local_wavevectors(W0, ORIGIN)
        k2 = local_wavevectors(W65, ORIGIN)
        frame = frames(SurfaceProfile.planar(5.0), np.array([1.0]), np.array([0.0]))
        kd, _, mismatch = closure(k1, k2 - k1, *frame, "energy")
        assert norms(kd - k2)[0] <= 1e-12 * norms(k2)[0]
        assert abs(mismatch[0]) <= 1e-12

    def test_evanescent_when_tangential_too_large(self):
        kd, status, mismatch = closure(np.array([[6.0, 0.0, 8.0]]), np.array([[7.0, 0.0, 0.0]]), *AXES, "energy")
        assert status[0] == EVANESCENT
        assert kd.tolist() == [[0.0, 0.0, 0.0]]
        assert mismatch[0] > 0

    def test_reflection_character_preserved(self):
        # grating strong enough to flip the normal component: sign follows kg + kp
        kd, status, _ = closure(np.array([[0.0, 0.0, 10.0]]), np.array([[3.0, 0.0, -18.0]]), *AXES, "energy")
        assert status[0] == PROPAGATING
        assert kd[0, 2] < 0.0  # reflected

    def test_energy_and_tangential_momentum_random(self):
        rng = np.random.default_rng(41)
        n = 2000
        t, b, nn = random_frames(rng, n)
        k = np.array([Wavelength(lam).k for lam in rng.uniform(400.0, 700.0, n)])
        kp = rng.normal(0, 1, (n, 3))
        kp *= (k / norms(kp))[:, None]
        kg = rng.normal(0, 1, (n, 3)) * (rng.uniform(0, 1.2, n) * k)[:, None]
        kd, status, _ = closure(kp, kg, t, b, nn, "energy")
        prop = status == PROPAGATING
        w = kg + kp
        assert np.all(np.abs(norms(kd) - k)[prop] <= 1e-12 * k[prop])
        assert np.all(np.abs(dot(kd - w, t))[prop] <= 1e-12 * k[prop])
        assert np.all(np.abs(dot(kd - w, b))[prop] <= 1e-12 * k[prop])
        assert prop.sum() > 1000

    def test_agrees_with_basic_on_bragg(self):
        rng = np.random.default_rng(42)
        frame = random_frames(rng, 200)
        kp = rng.normal(0, 1, (200, 3))
        kp *= LAM.k / norms(kp)[:, None]
        k2 = rng.normal(0, 1, (200, 3))
        k2 *= LAM.k / norms(k2)[:, None]
        kg = k2 - kp  # |kg + kp| = |kp| by construction
        kd, status, _ = closure(kp, kg, *frame, "energy")
        basic, _, _ = closure(kp, kg, *frame, "basic")
        assert np.all(status == PROPAGATING)
        assert np.all(norms(kd - basic) <= 1e-12 * LAM.k)

    def test_matches_sphere_search_oracle(self):
        rng = np.random.default_rng(43)
        frame = random_frames(rng, 60)
        k = 2000.0 * math.pi / rng.uniform(400.0, 700.0, 60)
        kp = rng.normal(0, 1, (60, 3))
        kp *= (k / norms(kp))[:, None]
        kg = rng.normal(0, 1, (60, 3)) * (rng.uniform(0, 1.0, 60) * k)[:, None]
        kd, status, _ = closure(kp, kg, *frame, "energy")
        rows = np.flatnonzero(status == PROPAGATING)[:25]
        assert rows.size == 25
        for i in rows:
            oracle = sphere_search_oracle(kp[i], kg[i], tuple(v[i] for v in frame))
            assert np.linalg.norm(kd[i] - oracle) < 1e-8


class TestDiffractSample:
    """``diffract`` on field rows, through ``trace_field``."""

    def test_on_bragg_field_reconstructs_everywhere(self):
        field = record(W65, W0, SurfaceProfile.planar(10.0), PolarGrid(4, 8))
        k2 = local_wavevectors(W0, ORIGIN)
        trace = trace_field(field, W65, mode="energy")
        assert np.all(trace.status == PROPAGATING)
        assert np.all(norms(trace.kd - k2) <= 1e-12 * norms(k2)[0])

    def test_degenerate_sample_passes_through(self):
        field = record(W0, W0, SurfaceProfile.planar(10.0), PolarGrid(2, 4))
        trace = trace_field(field, W65, mode="energy")
        assert np.all(trace.status == PASS_THROUGH)
        assert np.array_equal(trace.kd, local_wavevectors(W65, field.pos))

    def test_deformed_sample_matches_manual_composition(self):
        # transport the uniform field onto a sphere cap and check one sample
        # against an explicit rotation + closure computation
        flat = SurfaceProfile.planar(10.0)
        cap = SurfaceProfile.sphere_cap(50.0, 10.0)
        field = record(W65, W0, flat, PolarGrid(5, 4))  # ring 5 hits s = 10
        deformed = induce_forward(field, cap, Projection.orthogonal())
        i = int(np.flatnonzero((np.abs(deformed.s - 10.0) < 1e-9) & (deformed.phi == 0.0))[0])

        alpha = math.asin(10.0 / 50.0)  # frame tilt at s = 10 on R = 50

        def rot_y(v: Vec3, a: float) -> Vec3:
            # rotation mapping the planar frame onto the tilted one
            c, s = math.cos(a), math.sin(a)
            return Vec3(c * v.x + s * v.z, v.y, -s * v.x + c * v.z)

        k1 = Vec3(*local_wavevectors(W65, ORIGIN)[0])
        k2 = Vec3(*local_wavevectors(W0, ORIGIN)[0])
        kg_rotated = rot_y(k2 - k1, -alpha)
        kg_world = combine(*deformed.frames(), *deformed.g.T)[i]
        assert (Vec3(*kg_world) - kg_rotated).norm() <= 1e-11

        # manual energy closure in the tilted frame
        t = rot_y(Vec3(1, 0, 0), -alpha)
        b = Vec3(0, 1, 0)
        n = rot_y(Vec3(0, 0, -1), -alpha)
        kp = Vec3(*local_wavevectors(W65, deformed.pos[i:i + 1])[0])
        w = kg_rotated + kp
        wt, wb, wn = w.dot(t), w.dot(b), w.dot(n)
        c = math.sqrt(kp.norm() ** 2 - wt * wt - wb * wb)
        if wn < 0:
            c = -c
        expected = t * wt + b * wb + n * c

        kd = trace_field(deformed, W65, mode="energy").kd[i]
        assert (Vec3(*kd) - expected).norm() <= 1e-11

    def test_efficiency_hook(self):
        field = record(W65, W0, SurfaceProfile.planar(10.0), PolarGrid(2, 4))
        trace = trace_field(field, W65, efficiency=lambda f, p: np.full(len(f), 0.25))
        assert np.all(trace.eta == 0.25)
        assert abs((1.0 - trace.eta[1]) - 0.75) < 1e-15

    @pytest.mark.parametrize("values", [lambda f, p: 0.5, lambda f, p: np.full(len(f) + 1, 0.5),
                                        lambda f, p: np.full((len(f), 1), 0.5)], ids=["scalar", "long", "column"])
    def test_efficiency_of_the_wrong_shape_rejected(self, values):
        field = record(W65, W0, SurfaceProfile.planar(10.0), PolarGrid(2, 4))
        with pytest.raises(ValueError, match="one per sample"):
            trace_field(field, W65, efficiency=values)

    def test_unknown_mode_rejected(self):
        field = record(W65, W0, SurfaceProfile.planar(10.0), PolarGrid(1, 1))
        kp = local_wavevectors(W65, field.pos)
        with pytest.raises(ValueError):
            diffract(kp, field.g, *field.frames(), mode="fancy")
        with pytest.raises(ValueError):
            trace_field(field, W65, mode="fancy")

    def test_probe_singular_at_sample(self):
        field = record(W65, W0, SurfaceProfile.planar(10.0), PolarGrid(2, 4))
        probe = Wave.diverging(Vec3(*field.pos[1]), LAM)
        with pytest.raises(SingularPoint):
            trace_field(field, probe)


class TestResultValidation:
    def test_eta_bounds(self):
        with pytest.raises(ValueError):
            DiffractionResult(Vec3(0, 0, 1), DiffractionStatus.PROPAGATING, 0.0, eta=1.5)

    def test_evanescent_has_no_kd(self):
        with pytest.raises(ValueError):
            DiffractionResult(Vec3(0, 0, 1), DiffractionStatus.EVANESCENT, 0.1)
        with pytest.raises(ValueError):
            DiffractionResult(None, DiffractionStatus.PROPAGATING, 0.0)
