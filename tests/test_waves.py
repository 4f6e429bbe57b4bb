import math

import numpy as np
import pytest

from hoedeform.errors import SingularPoint, WavelengthMismatch
from hoedeform.geometry import Vec3
from hoedeform.waves import (
    Wave,
    Wavelength,
    interference_intensity,
    local_amplitude,
    local_wavevector,
)

LAM500 = Wavelength(500.0)
K500 = 4.0 * math.pi  # 2*pi / 0.5 um


def test_wavenumber_definition():
    assert abs(LAM500.k - K500) < 1e-12
    for lam in (405.0, 532.0, 633.0):
        wl = Wavelength(lam)
        assert abs(wl.k * (lam / 1000.0) - 2.0 * math.pi) <= 1e-12 * 2.0 * math.pi


def test_wavelength_validation():
    for bad in (0.0, -500.0, float("nan")):
        with pytest.raises(ValueError):
            Wavelength(bad)


class TestLocalWavevector:
    def test_plane_wave_is_position_independent(self):
        w = Wave.plane(Vec3(0, 0, 1), LAM500)
        for r in (Vec3(0, 0, 0), Vec3(5, -3, 12)):
            k = local_wavevector(w, r)
            assert (k - Vec3(0, 0, K500)).norm() < 1e-12
        assert abs(K500 - 12.566370614359172) < 1e-12

    def test_diverging_points_away_from_origin(self):
        w = Wave.diverging(Vec3(0, 0, 0), LAM500)
        k = local_wavevector(w, Vec3(0, 0, 100.0))
        assert (k - Vec3(0, 0, K500)).norm() < 1e-12

    def test_converging_points_toward_target(self):
        w = Wave.converging(Vec3(0, 0, 50.0), LAM500)
        k = local_wavevector(w, Vec3(0, 0, 0))
        assert (k - Vec3(0, 0, K500)).norm() < 1e-12

    def test_magnitude_everywhere(self):
        rng = np.random.default_rng(21)
        waves = [
            Wave.plane(Vec3(*rng.normal(0, 1, 3)).normalized(), Wavelength(633.0)),
            Wave.diverging(Vec3(1.0, -2.0, -30.0), Wavelength(450.0)),
            Wave.converging(Vec3(0.0, 5.0, 80.0), Wavelength(532.0)),
        ]
        for w in waves:
            for _ in range(50):
                r = Vec3(*rng.uniform(-20, 20, 3))
                assert abs(local_wavevector(w, r).norm() - w.wavelength.k) <= 1e-12 * w.wavelength.k

    def test_singular_at_source(self):
        w = Wave.diverging(Vec3(0, 0, 10.0), LAM500)
        with pytest.raises(SingularPoint):
            local_wavevector(w, Vec3(0, 0, 10.0))


class TestLocalAmplitude:
    def test_inverse_distance(self):
        w = Wave.diverging(Vec3(0, 0, 0), LAM500, amplitude=math.pi)
        assert abs(local_amplitude(w, Vec3(1.0, 0, 0)) - 1.0) < 1e-12
        assert abs(local_amplitude(w, Vec3(2.0, 0, 0)) - 0.5) < 1e-12

    def test_plane_wave_constant(self):
        w = Wave.plane(Vec3(0, 0, 1), LAM500, amplitude=0.7)
        assert local_amplitude(w, Vec3(9, 9, 9)) == 0.7

    def test_strictly_decreasing(self):
        w = Wave.diverging(Vec3(0, 0, 0), LAM500)
        amps = [local_amplitude(w, Vec3(d, 0, 0)) for d in (1.0, 2.0, 5.0, 10.0)]
        assert all(b < a for a, b in zip(amps, amps[1:]))


class TestInterference:
    def test_plane_constructive(self):
        w1 = Wave.plane(Vec3(0, 0, 1), LAM500)
        w2 = Wave.plane(Vec3(1, 0, 0), LAM500)
        assert abs(interference_intensity(w1, w2, Vec3(0, 0, 0)) - 4.0) < 1e-12

    def test_plane_destructive(self):
        w1 = Wave.plane(Vec3(0, 0, 1), LAM500)
        w2 = Wave.plane(Vec3(1, 0, 0), LAM500)
        kg = local_wavevector(w2, Vec3(0, 0, 0)) - local_wavevector(w1, Vec3(0, 0, 0))
        u = kg.normalized()
        d_mm = math.pi / (kg.norm() * 1000.0)  # half a fringe along kg
        assert abs(interference_intensity(w1, w2, u * d_mm)) < 1e-9

    def test_plane_periodicity(self):
        w1 = Wave.plane(Vec3(0, 0, 1), LAM500)
        w2 = Wave.plane(Vec3(math.sin(1.1), 0, math.cos(1.1)), LAM500)
        kg = local_wavevector(w2, Vec3(0, 0, 0)) - local_wavevector(w1, Vec3(0, 0, 0))
        u = kg.normalized()
        period_mm = 2.0 * math.pi / (kg.norm() * 1000.0)
        rng = np.random.default_rng(22)
        for _ in range(20):
            r = Vec3(*rng.uniform(-2, 2, 3))
            a = interference_intensity(w1, w2, r)
            b = interference_intensity(w1, w2, r + u * period_mm)
            assert abs(a - b) < 1e-8

    def test_plane_constant_on_orthogonal_planes(self):
        w1 = Wave.plane(Vec3(0, 0, 1), LAM500)
        w2 = Wave.plane(Vec3(math.sin(0.6), 0, math.cos(0.6)), LAM500)
        kg = local_wavevector(w2, Vec3(0, 0, 0)) - local_wavevector(w1, Vec3(0, 0, 0))
        t = Vec3(0, 1, 0)  # orthogonal to kg (kg has no y component)
        assert abs(kg.dot(t)) < 1e-15
        base = Vec3(0.3, 0.0, -0.2)
        ref = interference_intensity(w1, w2, base)
        for step in (0.1, 1.0, 7.3):
            assert abs(interference_intensity(w1, w2, base + t * step) - ref) < 1e-9

    def test_diverging_converging_equal_distance_sums(self):
        w1 = Wave.diverging(Vec3(0, 0, 0), LAM500)
        w2 = Wave.converging(Vec3(0, 0, 10.0), LAM500)
        a = Vec3(math.sqrt(75.0), 0.0, 5.0)  # both distances exactly 10
        b = Vec3(0.0, 0.0, -5.0)  # distances 5 and 15
        from hoedeform.waves import _local_phase
        arg_a = _local_phase(w2, a) - _local_phase(w1, a)
        arg_b = _local_phase(w2, b) - _local_phase(w1, b)
        assert abs(arg_a - arg_b) <= 1e-12

    def test_wavelength_mismatch(self):
        w1 = Wave.plane(Vec3(0, 0, 1), Wavelength(500.0))
        w2 = Wave.plane(Vec3(1, 0, 0), Wavelength(501.0))
        with pytest.raises(WavelengthMismatch):
            interference_intensity(w1, w2, Vec3(0, 0, 0))


class TestWaveValidation:
    def test_plane_direction_normalized(self):
        w = Wave.plane(Vec3(0, 0, 2.0), LAM500)
        assert abs(w.direction.norm() - 1.0) <= 1e-12

    def test_zero_direction_rejected(self):
        with pytest.raises(ValueError):
            Wave.plane(Vec3(0, 0, 0), LAM500)

    def test_negative_amplitude_rejected(self):
        with pytest.raises(ValueError):
            Wave.plane(Vec3(0, 0, 1), LAM500, amplitude=-1.0)
