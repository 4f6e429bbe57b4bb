import dataclasses
import math

import numpy as np
import pytest

import oracles
from conftest import traced_peak
from hoedeform.deformation import rescale

from hoedeform.diffraction import EVANESCENT
from hoedeform.errors import PointNotOnEllipsoid, WavelengthMismatch
from hoedeform.geometry import Vec3
from hoedeform.recording import (
    CHUNK_ROWS,
    BraggIsosurfaceSpec,
    CartesianGrid,
    GratingVectorField,
    PolarGrid,
    check_isosurface,
    record,
)
from hoedeform.scene import read_rays_csv, trace_field, write_rays_csv
from hoedeform.surfaces import SurfaceProfile
from hoedeform.waves import Wave, Wavelength, local_wavevector

LAM = Wavelength(500.0)
W0 = Wave.plane(Vec3(0, 0, 1), LAM)
W65 = Wave.plane(Vec3(math.sin(math.radians(65)), 0.0, math.cos(math.radians(65))), LAM)
FLAT = SurfaceProfile.planar(10.0)
CAP = SurfaceProfile.sphere_cap(50.0, 10.0)


class TestGrids:
    def test_polar_grid_layout(self):
        s, phi = PolarGrid(3, 4).footprint_arrays(10.0)
        assert len(s) == 1 + 3 * 4
        assert (s[0], phi[0]) == (0.0, 0.0)
        assert set(s[1:].tolist()) == {10.0 / 3, 20.0 / 3, 10.0}
        assert len(set(zip(s.tolist(), phi.tolist()))) == len(s)

    def test_polar_grid_without_vertex(self):
        s, _ = PolarGrid(2, 4, include_vertex=False).footprint_arrays(10.0)
        assert len(s) == 8 and np.all(s > 0)

    def test_polar_grid_s_max_respected(self):
        s, _ = PolarGrid(2, 4, s_max=5.0).footprint_arrays(10.0)
        assert s.max() == 5.0
        with pytest.raises(ValueError):
            PolarGrid(2, 4, s_max=11.0).footprint_arrays(10.0)

    def test_cartesian_grid_skips_outside_disc(self):
        s, _ = CartesianGrid(5, 5, 10.0).footprint_arrays(10.0)
        assert np.all(s <= 10.0)
        assert len(s) < 25  # corners fall outside

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            PolarGrid(0, 4)
        with pytest.raises(ValueError):
            CartesianGrid(2, 2, -1.0)


class TestRecord:
    def test_plane_pair_gives_uniform_grating(self):
        field = record(W0, W65, FLAT, PolarGrid(4, 8))
        k = LAM.k
        expected = local_wavevector(W65, Vec3(0, 0, 0)) - local_wavevector(W0, Vec3(0, 0, 0))
        expected_len = k * math.sqrt(2.0 - 2.0 * math.cos(math.radians(65)))
        assert abs(expected.norm() - expected_len) <= 1e-12 * expected_len
        assert abs(expected_len - 13.504) < 5e-4
        for smp in field.samples:
            kg = smp.kg_world()
            assert (kg - expected).norm() <= 1e-12 * expected_len
            assert abs(smp.magnitude - expected_len) <= 1e-12 * expected_len

    def test_identical_waves_give_zero_field(self):
        field = record(W0, W0, FLAT, PolarGrid(3, 6))
        assert np.all(field.magnitudes == 0.0) and np.all(field.g == 0.0)

    def test_curved_carrier_keeps_grating_vectors_collinear(self):
        field = record(W0, W65, CAP, PolarGrid(4, 8))
        expected = local_wavevector(W65, Vec3(0, 0, 0)) - local_wavevector(W0, Vec3(0, 0, 0))
        for smp in field.samples:
            assert (smp.kg_world() - expected).norm() <= 1e-12 * expected.norm()
        # frame coordinates do vary with the carrier tilt
        inner = field.samples[1].coords
        outer = field.samples[-1].coords
        assert abs(inner[0] - outer[0]) > 1e-3

    def test_wavelength_mismatch(self):
        other = Wave.plane(Vec3(0, 0, 1), Wavelength(633.0))
        with pytest.raises(WavelengthMismatch):
            record(other, W65, FLAT, PolarGrid(2, 4))

    def test_source_on_carrier_is_singular(self):
        from hoedeform.errors import SingularPoint
        on_carrier = Wave.diverging(Vec3(5.0, 0.0, 0.0), LAM)  # grid point (5, 0)
        with pytest.raises(SingularPoint):
            record(on_carrier, W65, FLAT, PolarGrid(2, 4))

    def test_magnitude_bounded_by_twice_wavenumber(self):
        rng = np.random.default_rng(31)
        k = LAM.k
        for _ in range(30):
            d1 = Vec3(*rng.normal(0, 1, 3)).normalized()
            d2 = Vec3(*rng.normal(0, 1, 3)).normalized()
            field = record(Wave.plane(d1, LAM), Wave.plane(d2, LAM), FLAT, PolarGrid(1, 1))
            assert field.samples[0].magnitude <= 2.0 * k * (1.0 + 1e-12)

    def test_counter_propagating_reaches_bound(self):
        field = record(Wave.plane(Vec3(0, 0, 1), LAM), Wave.plane(Vec3(0, 0, -1), LAM), FLAT, PolarGrid(1, 1))
        assert abs(field.samples[0].magnitude - 2.0 * LAM.k) <= 1e-12 * LAM.k


class TestIsosurface:
    def _setup(self):
        w1 = Wave.diverging(Vec3(0, 0, 0), LAM)
        w2 = Wave.converging(Vec3(0, 0, 10.0), LAM)
        spec = BraggIsosurfaceSpec(Vec3(0, 0, 0), Vec3(0, 0, 10.0), 20.0)
        return w1, w2, spec

    def _ellipsoid_points(self, n=24):
        # foci (0,0,0), (0,0,10); sum 20 -> a = 10, c = 5, b^2 = 75
        a, b, zc = 10.0, math.sqrt(75.0), 5.0
        pts = []
        for i in range(n):
            u = math.pi * (i + 0.5) / n
            for psi in (0.0, 1.3, 2.9):
                pts.append(Vec3(b * math.sin(u) * math.cos(psi), b * math.sin(u) * math.sin(psi), zc + a * math.cos(u)))
        return pts

    def test_on_surface_points_pass(self):
        w1, w2, spec = self._setup()
        report = check_isosurface(w1, w2, spec, self._ellipsoid_points())
        assert report.max_phase_spread_rad < 1e-9
        assert report.max_collinearity_residual < 1e-9

    def test_equator_point(self):
        w1, w2, spec = self._setup()
        report = check_isosurface(w1, w2, spec, [Vec3(math.sqrt(75.0), 0.0, 5.0), Vec3(0.0, 0.0, -5.0)])
        assert report.max_phase_spread_rad < 1e-12

    def test_off_surface_point_rejected(self):
        w1, w2, spec = self._setup()
        with pytest.raises(PointNotOnEllipsoid):
            check_isosurface(w1, w2, spec, [Vec3(0.0, 0.0, 16.0)])

    def test_foci_must_match_waves(self):
        w1, w2, _ = self._setup()
        bad = BraggIsosurfaceSpec(Vec3(0, 0, 1.0), Vec3(0, 0, 10.0), 20.0)
        with pytest.raises(ValueError):
            check_isosurface(w1, w2, bad, [])

    def test_requires_diverging_converging_pair(self):
        w1, w2, spec = self._setup()
        with pytest.raises(ValueError):
            check_isosurface(w2, w2, spec, [])

    def test_spec_requires_sum_above_focal_distance(self):
        with pytest.raises(ValueError):
            BraggIsosurfaceSpec(Vec3(0, 0, 0), Vec3(0, 0, 10.0), 9.0)


def _arrays(field) -> dict:
    """Writable copies of the sample arrays of ``field``."""
    return {k: getattr(field, k).copy() for k in ("s", "phi", "pos", "g")}


def _field(arrays: dict, like) -> GratingVectorField:
    return GratingVectorField(FLAT, arrays["s"], arrays["phi"], arrays["pos"], arrays["g"], like.grid,
                              like.wavelength_nm)


class TestFieldValidation:
    def test_duplicate_footprints_rejected(self):
        field = record(W0, W65, FLAT, PolarGrid(2, 4))
        doubled = {k: np.concatenate((v, v[:1])) for k, v in _arrays(field).items()}
        with pytest.raises(ValueError):
            _field(doubled, field)

    def test_negative_radius_rejected(self):
        field = record(W0, W65, FLAT, PolarGrid(2, 4))
        arrays = _arrays(field)
        arrays["s"][1] = -0.5
        with pytest.raises(ValueError, match=r"^sample 1 .*radial distance must be >= 0"):
            _field(arrays, field)

    def test_full_turn_azimuth_rejected(self):
        field = record(W0, W65, FLAT, PolarGrid(2, 4))
        arrays = _arrays(field)
        arrays["phi"][1] = 2 * math.pi
        with pytest.raises(ValueError, match=r"^sample 1 .*azimuth must lie in \[0, 2\*pi\)"):
            _field(arrays, field)

    def test_off_carrier_position_rejected(self):
        field = record(W0, W65, FLAT, PolarGrid(2, 4))
        arrays = _arrays(field)
        arrays["pos"][0, 2] += 1.0
        with pytest.raises(ValueError):
            _field(arrays, field)


# a polar field on the cap spanning more than two chunks, and a cartesian one
VIEW_FIELDS = {
    "polar": lambda: record(Wave.diverging(Vec3(-30, 0, -40), LAM), Wave.converging(Vec3(0, 0, 80), LAM), CAP,
                            PolarGrid(2 * CHUNK_ROWS // 32 + 1, 32)),
    "cartesian": lambda: record(W0, W65, CAP, CartesianGrid(9, 7, 9.5)),
}


class TestSampleView:
    @pytest.mark.parametrize("kind", sorted(VIEW_FIELDS))
    def test_records_equal_the_per_row_oracle(self, kind):
        field = VIEW_FIELDS[kind]()
        want = oracles.sample_records(field)
        assert len(field.samples) == len(field) == len(want)
        assert list(field.samples) == want
        for i in (0, CHUNK_ROWS - 1, CHUNK_ROWS, -1):
            if i < len(want):
                assert field.samples[i] == want[i]

    def test_indexing_and_slices(self):
        field = VIEW_FIELDS["cartesian"]()
        want = oracles.sample_records(field)
        view = field.samples
        assert view[-1] == want[-1] and view[-len(want)] == want[0]
        for i in (len(want), -len(want) - 1):
            with pytest.raises(IndexError):
                view[i]
        for cut in (slice(1, 4), slice(None, None, -3), slice(5, 2), slice(-2, None), slice(None)):
            assert view[cut] == tuple(want[cut])
        assert len(view[2:9]) == 7

    def test_equality_and_hash(self):
        field = VIEW_FIELDS["cartesian"]()
        want = oracles.sample_records(field)
        assert field.samples == tuple(want)
        assert field.samples == field.samples
        changed = list(want)
        changed[3] = dataclasses.replace(want[3], coords=(want[3].coords[0], want[3].coords[1] + 1e-9,
                                                          want[3].coords[2]))
        assert field.samples != tuple(changed)
        assert field.samples != tuple(want[:-1])
        assert not field.samples == (*want, want[0])
        with pytest.raises(TypeError):
            hash(field.samples)

    def test_hooks_see_every_record_in_order(self, tmp_path):
        # each hook is called once with the field itself; its values land row for row
        field = VIEW_FIELDS["polar"]()
        seen = []
        factors = 1.0 + 0.01 * np.arange(len(field))
        etas = np.linspace(0.0, 1.0, len(field))
        scaled = rescale(field, lambda f: seen.append(f) or factors)
        trace = trace_field(field, W0, efficiency=lambda f, probe: seen.append(f) or etas)
        assert len(seen) == 2 and all(f is field for f in seen)
        assert np.array_equal(scaled.g, field.g * factors[:, None])
        assert np.all(np.abs(scaled.magnitudes - factors * field.magnitudes) <= 1e-15 * scaled.magnitudes)
        assert np.array_equal(trace.eta, etas)
        write_rays_csv(trace, tmp_path / "rays.csv")
        assert np.array_equal(read_rays_csv(tmp_path / "rays.csv").weights, etas[trace.status != EVANESCENT])

    def test_iterating_the_samples_holds_one_chunk(self):
        field = record(W0, W65, CAP, PolarGrid(100, 100))
        assert len(field) == 10_001

        def iterate():
            for _ in field.samples:
                pass

        peak = traced_peak(iterate)
        assert peak < 1_000_000, f"iterating {len(field)} samples peaked at {peak} bytes"
