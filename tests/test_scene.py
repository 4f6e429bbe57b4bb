import contextlib
import functools
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest

import oracles
from conftest import traced_peak
from hoedeform import cli
from hoedeform.deformation import induce_forward
from hoedeform.errors import ConfigError, EmptyBundle, NoMinimumInRange
from hoedeform.geometry import Vec3
from hoedeform.diffraction import EVANESCENT, PROPAGATING
from hoedeform.recording import CHUNK_ROWS, GratingVectorField, PolarGrid, record
from hoedeform.config import LINE_BREAKS, READ_BLOCK_CHARS, load_scene_config
from hoedeform.pipeline import deform_stage, record_stage
from hoedeform.scene import (
    PARALLEL_TOL,
    PlaneHits,
    RayBundle,
    focal_scan,
    intersect_plane,
    read_rays_csv,
    trace_field,
    write_hits_csv,
    write_rays_csv,
)
from hoedeform.surfaces import Projection, SurfaceProfile
from hoedeform.waves import Wave, Wavelength

REF_DIR = Path(__file__).resolve().parent / "reference"
CONFIG_DIR = Path(__file__).resolve().parent.parent / "src" / "hoedeform" / "configs"
LAM = Wavelength(500.0)
W0 = Wave.plane(Vec3(0, 0, 1), LAM)
W65 = Wave.plane(Vec3(math.sin(math.radians(65)), 0.0, math.cos(math.radians(65))), LAM)


def _max_pairwise_angle(dirs):
    worst = 0.0
    for i in range(len(dirs)):
        for j in range(i + 1, len(dirs)):
            a, b = dirs[i], dirs[j]
            worst = max(worst, math.atan2(a.cross(b).norm(), a.dot(b)))
    return worst


def _bundle(rays):
    """The RayBundle of (origin, direction) Vec3 pairs, each of weight 1."""
    return RayBundle(np.array([o.as_tuple() for o, _ in rays], dtype=float).reshape(-1, 3),
                     np.array([d.as_tuple() for _, d in rays], dtype=float).reshape(-1, 3), np.ones(len(rays)))


def _converging_bundle(focus: Vec3, n=40, radius=8.0):
    rays = []
    for i in range(n):
        phi = 2 * math.pi * i / n
        r = radius * (0.3 + 0.7 * (i % 5) / 4.0)
        origin = Vec3(r * math.cos(phi), r * math.sin(phi), 0.0)
        rays.append((origin, (focus - origin).normalized()))
    return _bundle(rays)


class TestTraceField:
    def test_on_bragg_planar_bundle_is_parallel(self):
        field = record(W65, W0, SurfaceProfile.planar(10.0), PolarGrid(5, 8))
        records = trace_field(field, W65, mode="energy")
        dirs = [r.ray.direction for r in records if r.ray is not None]
        assert len(dirs) == len(field.samples)
        assert _max_pairwise_angle(dirs) < 1e-9

    def test_curved_recording_replays_parallel(self):
        cap = SurfaceProfile.sphere_cap(50.0, 10.0)
        field = record(W65, W0, cap, PolarGrid(5, 8))
        records = trace_field(field, W65, mode="energy")
        dirs = [r.ray.direction for r in records if r.ray is not None]
        assert _max_pairwise_angle(dirs) < 1e-9

    def test_ray_weight_carries_efficiency(self):
        field = record(W65, W0, SurfaceProfile.planar(10.0), PolarGrid(2, 4))
        records = trace_field(field, W65, efficiency=lambda f, p: np.full(len(f), 0.5))
        assert all(r.ray.weight == 0.5 for r in records)


def _rot_z(v: Vec3, a: float) -> Vec3:
    c, s = math.cos(a), math.sin(a)
    return Vec3(c * v.x - s * v.y, s * v.x + c * v.y, v.z)


def _bent_combiner_trace(proj, source: Vec3, target: Vec3, n_s: int = 10, n_phi: int = 16):
    """Trace of an off-axis combiner recorded flat on an n_s x n_phi polar grid from
    ``source`` to ``target``, bent onto the 50 mm cap through ``proj`` and probed by its source wave."""
    w1, w2 = Wave.diverging(source, LAM), Wave.converging(target, LAM)
    field = record(w1, w2, SurfaceProfile.planar(10.0), PolarGrid(n_s, n_phi))
    return trace_field(induce_forward(field, SurfaceProfile.sphere_cap(50.0, 10.0), proj), w1)


BENDS = pytest.mark.parametrize("proj", [Projection.orthogonal(), Projection.from_center_z(500.0)],
                                ids=["orthogonal", "central"])


@BENDS
def test_rotating_the_scene_by_one_azimuth_step_permutes_the_trace(proj):
    # the carriers are rotationally symmetric, so turning both recording waves
    # and the probe about z by 2*pi/n_phi moves every ring sample to the next azimuth
    n_s, n_phi = 10, 16
    step = 2 * math.pi / n_phi
    source, target = Vec3(-30.0, 0.0, -40.0), Vec3(0.0, 0.0, 80.0)
    base = _bent_combiner_trace(proj, source, target, n_s, n_phi)
    turned = _bent_combiner_trace(proj, _rot_z(source, step), _rot_z(target, step), n_s, n_phi)
    ring, azimuth = np.divmod(np.arange(n_s * n_phi), n_phi)
    perm = np.concatenate(([0], 1 + ring * n_phi + (azimuth - 1) % n_phi))  # the vertex stays
    assert turned.status.tolist() == base.status[perm].tolist()
    c, s = math.cos(step), math.sin(step)
    d = base.direction[perm]
    want = np.column_stack((c * d[:, 0] - s * d[:, 1], s * d[:, 0] + c * d[:, 1], d[:, 2]))
    assert np.abs(turned.direction - want).max() <= 1e-12


@BENDS
def test_mirroring_the_scene_in_y_mirrors_the_trace(proj):
    # the carriers are symmetric under y -> -y, which takes azimuth index j of
    # every ring to (n_phi - j) mod n_phi; a source with y = 0 would mirror onto itself
    n_s, n_phi = 10, 16
    source, target = Vec3(-30.0, 12.0, -40.0), Vec3(4.0, -6.0, 80.0)
    base = _bent_combiner_trace(proj, source, target, n_s, n_phi)
    mirrored = _bent_combiner_trace(proj, Vec3(source.x, -source.y, source.z),
                                    Vec3(target.x, -target.y, target.z), n_s, n_phi)
    ring, azimuth = np.divmod(np.arange(n_s * n_phi), n_phi)
    perm = np.concatenate(([0], 1 + ring * n_phi + (n_phi - azimuth) % n_phi))  # the vertex stays
    assert mirrored.status.tolist() == base.status[perm].tolist()
    assert np.abs(mirrored.direction - base.direction[perm] * [1.0, -1.0, 1.0]).max() <= 1e-12


class TestIntersectPlane:
    def test_axial_ray(self):
        hits = intersect_plane(_bundle([(Vec3(0, 0, 0), Vec3(0, 0, 1))]), 10.0)
        assert hits.hits[0][1][0] == 0.0 and hits.hits[0][1][1] == 0.0

    def test_similar_triangles(self):
        hits = intersect_plane(_bundle([(Vec3(0, 0, 0), Vec3(0.6, 0.0, 0.8))]), 8.0)
        pt = hits.hits[0][1]
        assert abs(pt[0] - 6.0) < 1e-12 and pt[1] == 0.0

    def test_parallel_ray_flagged(self):
        hits = intersect_plane(_bundle([(Vec3(0, 0, 0), Vec3(1, 0, 0))]), 5.0)
        assert hits.parallel == (0,) and hits.hits == ()

    def test_behind_ray_flagged(self):
        hits = intersect_plane(_bundle([(Vec3(0, 0, 10.0), Vec3(0, 0, 1))]), 5.0)
        assert hits.behind == (0,)

    def test_hits_affine_in_z(self):
        rng = np.random.default_rng(51)
        for _ in range(20):
            d = Vec3(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3), 1.0).normalized()
            ray = _bundle([(Vec3(*rng.uniform(-5, 5, 2), 0.0), d)])
            z1, z2, z3 = 10.0, 20.0, 30.0
            p1 = intersect_plane(ray, z1).hits[0][1]
            p2 = intersect_plane(ray, z2).hits[0][1]
            p3 = intersect_plane(ray, z3).hits[0][1]
            # midpoint of p1 and p3 equals p2 for equispaced planes
            assert abs(0.5 * (p1[0] + p3[0]) - p2[0]) < 1e-12
            assert abs(0.5 * (p1[1] + p3[1]) - p2[1]) < 1e-12


def _loop_focal_scan(rays, z_range, n_planes):
    """Brute-force oracle: project every usable ray onto every plane.

    Returns the spot reports as (z, cx, cy, rms_x, rms_y, rms_total) tuples
    and the first-minimum plane indices of the x, y and total RMS sizes.
    """
    z_lo, z_hi = z_range
    usable = [r for r in rays if r.direction.z > PARALLEL_TOL]
    spacing = (z_hi - z_lo) / (n_planes - 1)
    reports = []
    for i in range(n_planes):
        z = z_lo + spacing * i
        pts = []
        for ray in usable:
            t = (z - ray.origin.z) / ray.direction.z
            pts.append((ray.origin.x + t * ray.direction.x, ray.origin.y + t * ray.direction.y))
        n = len(pts)
        cx = sum(p[0] for p in pts) / n
        cy = sum(p[1] for p in pts) / n
        vx = sum((p[0] - cx) ** 2 for p in pts) / n
        vy = sum((p[1] - cy) ** 2 for p in pts) / n
        reports.append((z, cx, cy, math.sqrt(vx), math.sqrt(vy), math.sqrt(vx + vy)))

    def first_min(col):
        values = [r[col] for r in reports]
        return values.index(min(values))

    return reports, (first_min(3), first_min(4), first_min(5))


def _close(a, b):
    """The tests/reference rule: 1e-12 relative, 1e-12 absolute below magnitude 1."""
    return abs(a - b) <= 1e-12 * max(abs(a), abs(b), 1.0)


def _astigmatic_bundle(n=24):
    rays = []
    for i in range(n):
        phi = 2 * math.pi * (i + 0.3) / n
        x0, y0 = 6.0 * math.cos(phi), 6.0 * math.sin(phi)
        d = Vec3(-x0 / 60.0, -y0 / 80.0, 1.0).normalized()
        rays.append((Vec3(x0, y0, 0.0), d))
    return _bundle(rays)


class TestFocalScan:
    def test_homocentric_bundle_recovers_focus(self):
        rays = _converging_bundle(Vec3(0, 0, 55.0))
        scan = focal_scan(rays, (10.0, 90.0), 81)
        assert abs(scan.z_min_rms_total - 55.0) <= scan.plane_spacing
        assert scan.astigmatism_mm <= scan.plane_spacing
        assert scan.bracketed_total

    def test_synthetic_astigmatic_bundle(self):
        scan = focal_scan(_astigmatic_bundle(), (30.0, 110.0), 161)
        assert abs(scan.z_min_rms_x - 60.0) <= 2 * scan.plane_spacing
        assert abs(scan.z_min_rms_y - 80.0) <= 2 * scan.plane_spacing
        assert scan.astigmatism_mm > 3 * scan.plane_spacing

    def test_parallel_bundle_has_no_minimum(self):
        d = Vec3(0.1, 0.0, 1.0).normalized()
        rays = _bundle([(Vec3(x, y, 0.0), d) for x in (-3.0, 0.0, 3.0) for y in (-2.0, 2.0)])
        with pytest.raises(NoMinimumInRange):
            focal_scan(rays, (10.0, 50.0), 41)

    def test_diverging_bundle_has_no_interior_minimum(self):
        rays = _bundle([(Vec3(x, 0, 0.0), Vec3(x / 50.0, 0, 1.0).normalized()) for x in (-4.0, -2.0, 2.0, 4.0)])
        with pytest.raises(NoMinimumInRange):
            focal_scan(rays, (10.0, 50.0), 41)

    def test_empty_bundle(self):
        with pytest.raises(EmptyBundle):
            focal_scan(_bundle([(Vec3(0, 0, 0), Vec3(0, 0, 1))]), (10.0, 50.0), 11)

    def test_range_must_be_forward_of_origins(self):
        rays = _converging_bundle(Vec3(0, 0, 55.0))
        with pytest.raises(ValueError):
            focal_scan(rays, (-5.0, 50.0), 12)

    def test_overflowing_bundle_is_numeric_error(self):
        rays = _bundle([(Vec3(x, 0.0, 0.0), Vec3(-x / 50.0 / abs(x), 0.0, 1.0).normalized()) for x in (-1e200, 1e200)])
        with pytest.raises(ArithmeticError):
            focal_scan(rays, (10.0, 90.0), 81)

    def test_spot_total_is_quadrature_sum(self):
        rays = _converging_bundle(Vec3(0.5, -0.25, 40.0))
        scan = focal_scan(rays, (5.0, 70.0), 14)
        for rep in scan.reports:
            assert abs(rep.rms_total ** 2 - (rep.rms_x ** 2 + rep.rms_y ** 2)) <= 1e-12

    def test_exact_minima_of_astigmatic_bundle(self):
        # x0 + t*(-x0/60) vanishes at z = 60 for every ray, y likewise at 80
        scan = focal_scan(_astigmatic_bundle(), (30.0, 110.0), 161)
        assert abs(scan.z_star_x - 60.0) <= 1e-12 * 60.0
        assert abs(scan.z_star_y - 80.0) <= 1e-12 * 80.0
        assert scan.z_star_x < scan.z_star_total < scan.z_star_y

    def test_parallel_axis_has_no_exact_minimum(self):
        # slopes vary in x only: the y spot size is constant and has no z*
        rays = _bundle([(Vec3(x, y, 0.0), Vec3(-x / 50.0, 0.1, 1.0).normalized())
                        for x in (-3.0, 0.0, 3.0) for y in (-2.0, 2.0)])
        scan = focal_scan(rays, (10.0, 90.0), 81)
        assert abs(scan.z_star_x - 50.0) <= 1e-12 * 50.0
        assert scan.z_star_y is None
        assert scan.z_star_total == scan.z_star_x
        assert len({rep.rms_y for rep in scan.reports}) == 1


ORACLE_BUNDLES = {
    "combiner": (lambda: read_rays_csv(REF_DIR / "combiner_deformed" / "rays.csv"), (40.0, 80.0), 801),
    "astigmatic": (_astigmatic_bundle, (30.0, 110.0), 161),
    # every ray passes exactly through (0.5, -0.25, 40): zero spot size at a plane
    "homocentric": (lambda: _converging_bundle(Vec3(0.5, -0.25, 40.0)), (5.0, 70.0), 66),
}


@pytest.mark.parametrize("bundle", sorted(ORACLE_BUNDLES))
def test_focal_scan_matches_per_plane_loop(bundle):
    make, z_range, n_planes = ORACLE_BUNDLES[bundle]
    rays = make()
    scan = focal_scan(rays, z_range, n_planes)
    reports, (ix, iy, it) = _loop_focal_scan(rays, z_range, n_planes)
    assert len(scan.reports) == len(reports)
    for rep, ref in zip(scan.reports, reports):
        assert rep.z == ref[0]
        got = (rep.cx, rep.cy, rep.rms_x, rep.rms_y, rep.rms_total)
        for col, (g, r) in enumerate(zip(got, ref[1:])):
            assert _close(g, r), f"z = {rep.z} column {col}: {g!r} vs loop {r!r}"
    assert (scan.z_min_rms_x, scan.z_min_rms_y, scan.z_min_rms_total) == (
        reports[ix][0], reports[iy][0], reports[it][0])
    last = n_planes - 1
    assert (scan.bracketed_x, scan.bracketed_y, scan.bracketed_total) == (0 < ix < last, 0 < iy < last, 0 < it < last)


def test_homocentric_focus_is_exact():
    # the naive var(a) + 2z cov(a, b) + z^2 var(b) leaves ~6e-8 mm here
    scan = focal_scan(_converging_bundle(Vec3(0.5, -0.25, 40.0)), (5.0, 70.0), 66)
    focus = next(rep for rep in scan.reports if rep.z == 40.0)
    assert focus.rms_total <= 1e-12
    assert abs(scan.z_star_total - 40.0) <= 1e-12 * 40.0


class TestRaysCsv:
    def test_round_trip_bit_exact(self, tmp_path):
        field = record(W65, W0, SurfaceProfile.planar(10.0), PolarGrid(4, 8))
        records = trace_field(field, W65)
        path = tmp_path / "rays.csv"
        write_rays_csv(records, path)
        rays = read_rays_csv(path)
        original = [r.ray for r in records if r.ray is not None]
        assert len(rays) == len(original)
        for a, b in zip(rays, original):
            assert a.origin == b.origin and a.direction == b.direction and a.weight == b.weight

    @pytest.mark.parametrize("scene", sorted(p.parent.name for p in REF_DIR.glob("*/rays.csv")))
    def test_reference_rays_equal_the_rerun_trace(self, tmp_path, scene):
        cfg = load_scene_config(CONFIG_DIR / f"{scene}.json")
        field = record_stage(cfg.recording, tmp_path)
        if cfg.deformation is not None:
            field = deform_stage(field, cfg.deformation, tmp_path)
        trace = trace_field(field, cfg.probe)
        path = REF_DIR / scene / "rays.csv"
        rays = read_rays_csv(path)
        assert isinstance(rays, RayBundle)
        assert rays == trace.rays() and rays == [rec.ray for rec in trace if rec.ray is not None]
        # one ulp more on one direction component is another bundle
        lines = path.read_text().splitlines()
        row = max(i for i, ln in enumerate(lines[1:], start=1) if ln.split(",")[8] != "evanescent")
        parts = lines[row].split(",")
        parts[5] = repr(math.nextafter(float(parts[5]), math.inf))
        lines[row] = ",".join(parts)
        edited = read_rays_csv(_write(tmp_path / "edited.csv", lines))
        assert edited != trace.rays() and list(edited)[:-1] == list(trace.rays())[:-1]

    def test_bundle_equals_sequences_of_equal_rays_in_order(self):
        rays = read_rays_csv(REF_DIR / "plane_wave_deformed" / "rays.csv")
        as_list = list(rays)
        assert rays == as_list and as_list == rays and rays == tuple(as_list)
        assert not rays != as_list
        assert rays != as_list[:-1] and rays != as_list[::-1] and rays != 5
        assert rays == read_rays_csv(REF_DIR / "plane_wave_deformed" / "rays.csv")
        assert rays != read_rays_csv(REF_DIR / "plane_wave_planar" / "rays.csv")
        assert rays != object() and not rays == "abc"
        with pytest.raises(TypeError):
            hash(rays)

    def test_evanescent_rows_have_empty_direction(self):
        # deformed steep grating probed on-axis produces evanescent samples
        lines = _mixed_rays_lines()
        ev = [ln for ln in lines[1:] if ",evanescent," in ln]
        assert ev, "scene should produce evanescent samples"
        for ln in ev:
            parts = ln.split(",")
            assert parts[5] == parts[6] == parts[7] == ""
            assert parts[9] == "0"

    def test_header_enforced(self, tmp_path):
        bad = tmp_path / "rays.csv"
        bad.write_text("not,a,header\n")
        with pytest.raises(ConfigError):
            read_rays_csv(bad)


def rays_file_lines(trace):
    """The lines of the rays.csv that ``write_rays_csv`` writes for ``trace``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rays.csv"
        write_rays_csv(trace, path)
        return path.read_text(encoding="utf-8").splitlines()


def _mixed_rays_lines():
    """rays.csv lines with propagating and evanescent rows."""
    field = record(W0, W65, SurfaceProfile.planar(10.0), PolarGrid(5, 8))
    deformed = induce_forward(field, SurfaceProfile.sphere_cap(50.0, 10.0), Projection.orthogonal())
    return rays_file_lines(trace_field(deformed, W0, mode="energy"))


def _write(path, lines):
    path.write_text("\n".join(lines) + "\n")
    return path


def _scan_rays(tmp_path, lines):
    """Exit code and stderr of ``scan --rays`` on ``lines``, run through cli.main."""
    return _scan(tmp_path, _write(tmp_path / "rays.csv", lines))


def _scan(tmp_path, rays):
    """Exit code and stderr of ``scan --rays rays``, run through cli.main."""
    cfg = tmp_path / "scene.json"
    cfg.write_text(json.dumps({"wavelength": {"lambda_nm": 500.0}, "analysis": {"detector_z_mm": [50.0]}}))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(["scan", "--config", str(cfg), "--out", str(tmp_path / "out"), "--rays", str(rays)])
    return code, err.getvalue()


# (row status to edit, {column: new value}, the error after "line N: ") for
# each malformed row; the rows with two faults pin which one is reported
MALFORMED_ROWS = {
    "weight_above_one": ("propagating", {9: "2.0"}, "ray weight must be in [0, 1], got 2.0"),
    "non_unit_direction": ("propagating", {7: "2"}, "ray direction must be unit length, |d| = 2.1957672474201972"),
    "non_finite_origin": ("propagating", {2: "nan"}, "Vec3 components must be finite, got (nan, 0.0, 0.0)"),
    "unknown_status": ("propagating", {8: "bogus"}, "unknown status 'bogus'"),
    "propagating_without_direction": ("propagating", {5: "", 6: "", 7: ""},
                                      "the direction must be empty exactly on evanescent rows"),
    "partial_direction": ("propagating", {6: ""}, "could not convert string to float: ''"),
    "evanescent_with_direction": ("evanescent", {5: "0", 6: "0", 7: "1"},
                                  "the direction must be empty exactly on evanescent rows"),
    "s_not_a_number": ("propagating", {0: "banana"}, "could not convert string to float: 'banana'"),
    "phi_nan": ("propagating", {1: "nan"}, "phi must lie in [0, 2*pi), got nan"),
    "negative_s": ("propagating", {0: "-5"}, "s must be finite and >= 0, got -5"),
    "evanescent_with_bad_cells": ("evanescent", {2: "abc", 3: "def", 4: "ghi", 9: "7"},
                                  "could not convert string to float: 'abc'"),
    "weight_nan": ("propagating", {9: "nan"}, "ray weight must be in [0, 1], got nan"),
    "origin_inf": ("propagating", {4: "-inf"}, "Vec3 components must be finite, got (0.0, 0.0, -inf)"),
    "evanescent_weight_seven": ("evanescent", {9: "7"}, "evanescent rows must have weight 0, got 7"),
    "nan_origin_and_bad_direction": ("propagating", {2: "nan", 6: "abc"},
                                     "Vec3 components must be finite, got (nan, 0.0, 0.0)"),
    "non_unit_direction_and_weight_two": ("propagating", {7: "2", 9: "2"},
                                          "ray direction must be unit length, |d| = 2.1957672474201972"),
    "evanescent_bad_origin_and_weight_seven": ("evanescent", {2: "abc", 9: "7"},
                                               "could not convert string to float: 'abc'"),
    "evanescent_nan_origin_and_weight_seven": ("evanescent", {2: "nan", 9: "7"},
                                               "Vec3 components must be finite, got (nan, 0.0, 0.36130541603657207)"),
    "infinite_direction_and_bad_weight": ("propagating", {5: "inf", 9: "x"},
                                          "Vec3 components must be finite, got (inf, 0.0, 0.42261826174069944)"),
    "non_unit_direction_and_bad_weight": ("propagating", {7: "2", 9: "x"}, "could not convert string to float: 'x'"),
    "weight_above_one_and_negative_s": ("propagating", {0: "-5", 9: "2.0"}, "ray weight must be in [0, 1], got 2.0"),
}


def _malformed(line, case):
    """``line`` with the edits of MALFORMED_ROWS[case]."""
    parts = line.split(",")
    for col, value in MALFORMED_ROWS[case][1].items():
        parts[col] = value
    return ",".join(parts)


class TestRaysCsvBoundary:
    def test_valid_file_scans(self, tmp_path):
        lines = _mixed_rays_lines()
        n_rays = sum(",evanescent," not in ln for ln in lines[1:])
        assert 0 < n_rays < len(lines) - 1
        assert len(read_rays_csv(_write(tmp_path / "rays.csv", lines))) == n_rays
        code, err = _scan_rays(tmp_path, lines)
        assert code == 0, err

    @pytest.mark.parametrize("case", sorted(MALFORMED_ROWS))
    def test_malformed_row_is_config_error(self, tmp_path, case):
        lines = _mixed_rays_lines()
        row = next(i for i, ln in enumerate(lines) if ln.split(",")[8] == MALFORMED_ROWS[case][0])
        lines[row] = _malformed(lines[row], case)
        path = _write(tmp_path / "rays.csv", lines)
        message = f"rays file {path} line {row + 1}: {MALFORMED_ROWS[case][2]}"
        with pytest.raises(ConfigError) as exc:
            read_rays_csv(path)
        assert str(exc.value) == message
        assert _scan(tmp_path, path) == (2, json.dumps({"error": {"type": "ConfigError", "message": message}}) + "\n")


    @pytest.mark.parametrize("first, second", [("non_unit_direction", "unknown_status"),
                                               ("unknown_status", "non_unit_direction")])
    def test_earliest_of_two_malformed_rows_is_named(self, tmp_path, first, second):
        lines = _mixed_rays_lines()
        rows = [i for i, ln in enumerate(lines) if ln.split(",")[8] == "propagating"]
        edited = list(lines)
        for case, row in ((first, rows[1]), (second, rows[-1])):
            edited[row] = _malformed(edited[row], case)
        path = tmp_path / "rays.csv"
        with pytest.raises(ConfigError) as both:
            read_rays_csv(_write(path, edited))
        with pytest.raises(ConfigError) as alone:
            read_rays_csv(_write(path, edited[:rows[1] + 1] + lines[rows[1] + 1:]))
        assert str(both.value) == str(alone.value)
        assert f"line {rows[1] + 1}: " in str(both.value)
        reason = {"non_unit_direction": "ray direction must be unit length", "unknown_status": "unknown status"}
        assert reason[first] in str(both.value)


# row counts around the chunks of the text codecs
CHUNK_COUNTS = (0, 1, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1, 2 * CHUNK_ROWS + 1)


def _boundary_trace(n):
    """The trace of the first ``n`` samples of a bent element, with evanescent rows and graded weights."""
    field = record(W0, W65, SurfaceProfile.planar(10.0), PolarGrid(33, 32))
    bent = induce_forward(field, SurfaceProfile.sphere_cap(50.0, 10.0), Projection.orthogonal())
    first = GratingVectorField(bent.carrier, bent.s[:n], bent.phi[:n], bent.pos[:n], bent.g[:n], bent.grid,
                               bent.wavelength_nm)
    return trace_field(first, W0, efficiency=lambda f, probe: 0.5 + 0.25 * np.cos(f.phi))


class TestChunkedCodecs:
    @pytest.mark.parametrize("n", CHUNK_COUNTS)
    def test_rays_csv_matches_the_row_by_row_oracle(self, tmp_path, n):
        trace = _boundary_trace(n)
        if n >= CHUNK_ROWS:
            assert {EVANESCENT, PROPAGATING} <= set(trace.status[:CHUNK_ROWS].tolist())
        path = tmp_path / "rays.csv"
        write_rays_csv(trace, path)
        assert path.read_text() == oracles.rays_csv_text(trace)

    @pytest.mark.parametrize("n", CHUNK_COUNTS)
    def test_hits_csv_matches_the_row_by_row_oracle(self, tmp_path, n):
        rng = np.random.default_rng(n)
        planes = [PlaneHits(z0, np.sort(rng.choice(4 * n + 4, size=k, replace=False)), rng.normal(size=(k, 2)), (), ())
                  for z0, k in ((45.0, n), (52.5, n // 2 + 1), (-0.1, 0))]
        path = tmp_path / "hits.csv"
        write_hits_csv(planes, path)
        assert path.read_text() == oracles.hits_csv_text(planes)

    @pytest.mark.parametrize("rows, earliest", [
        ((5, CHUNK_ROWS + 3), 5),
        ((2 * CHUNK_ROWS, CHUNK_ROWS), CHUNK_ROWS),
        ((CHUNK_ROWS, CHUNK_ROWS - 1), CHUNK_ROWS - 1),
        ((CHUNK_ROWS,), CHUNK_ROWS),
    ], ids=["first_and_second_chunk", "second_chunk_first_line", "across_the_boundary", "second_chunk_alone"])
    def test_read_rays_names_the_earliest_bad_line(self, tmp_path, rows, earliest):
        lines = rays_file_lines(_boundary_trace(2 * CHUNK_ROWS + 1))
        cases = dict(zip(rows, ("s_not_a_number", "unknown_status")))
        edited = [_malformed(ln, cases[i - 1]) if i - 1 in cases else ln for i, ln in enumerate(lines)]
        alone = list(lines)
        alone[earliest + 1] = edited[earliest + 1]
        path = tmp_path / "rays.csv"
        with pytest.raises(ConfigError) as both:
            read_rays_csv(_write(path, edited))
        with pytest.raises(ConfigError) as single:
            read_rays_csv(_write(path, alone))
        assert str(both.value) == str(single.value)
        assert f"line {earliest + 2}: " in str(both.value)

    def test_write_rays_csv_holds_less_than_the_file(self, tmp_path):
        trace = _bent_trace((100, 100))
        assert len(trace) == 10_001
        path = tmp_path / "rays.csv"
        peak = traced_peak(lambda: write_rays_csv(trace, path))
        assert peak < path.stat().st_size, f"peak {peak} bytes for a {path.stat().st_size} byte file"

    def test_read_rays_csv_holds_less_than_three_files(self, tmp_path):
        path = tmp_path / "rays.csv"
        write_rays_csv(_bent_trace((100, 100)), path)
        peak = traced_peak(lambda: read_rays_csv(path))
        assert peak < 3 * path.stat().st_size, f"peak {peak} bytes for a {path.stat().st_size} byte file"

    def test_read_rays_csv_holds_less_than_one_and_a_half_files(self, tmp_path):
        path = tmp_path / "rays.csv"
        write_rays_csv(_bent_trace((100, 100)), path)
        peak = traced_peak(lambda: read_rays_csv(path))
        assert peak < 1.5 * path.stat().st_size, f"peak {peak} bytes for a {path.stat().st_size} byte file"


@functools.lru_cache(maxsize=None)
def _long_rays():
    return tuple(rays_file_lines(_boundary_trace(2 * CHUNK_ROWS + 1)))


def _long_rays_lines():
    """The lines of a rays.csv of 1 025 rows, about 2.8 read blocks long."""
    return list(_long_rays())


def _bad_rows(lines, rows):
    """``lines`` with the malformed row ``rows[n]`` (a MALFORMED_ROWS case) on file line n."""
    return [_malformed(ln, rows[i + 1]) if i + 1 in rows else ln for i, ln in enumerate(lines)]


def _joined(lines, brk="\n", upto=None, edge=None):
    """The text of ``lines``, the first ``upto`` (all by default) ended by ``brk`` and the rest by "\n".

    With ``edge``, zeros lead the s cell of one row so that a ``brk`` starts at character ``edge``.
    """
    upto = len(lines) if upto is None else upto
    ends = [brk] * upto + ["\n"] * (len(lines) - upto)
    if edge is not None:
        starts, at = [], 0
        for ln, end in zip(lines, ends):
            at += len(ln)
            starts.append(at)
            at += len(end)
        row = max(i for i, at in enumerate(starts[:upto]) if at <= edge)
        lines = _padded(lines, row + 1, edge - starts[row])
    return "".join(ln + end for ln, end in zip(lines, ends))


def _padded(lines, line, zeros):
    """``lines`` with ``zeros`` zeros leading the s cell of file line ``line``."""
    return lines[:line - 1] + ["0" * zeros + lines[line - 1]] + lines[line:]


def _line_at(lines, offset):
    """The file line number of the line that holds character ``offset`` of ``lines`` joined by "\n"."""
    at = 0
    for i, ln in enumerate(lines):
        at += len(ln) + 1
        if at > offset:
            return i + 1


def _with_byte(text, line, byte=b"\xff"):
    """The UTF-8 bytes of ``text`` (lines ended by "\n") with ``byte`` two bytes into file line ``line``."""
    data = text.encode("utf-8")
    at = 0
    for _ in range(line - 1):
        at = data.index(b"\n", at) + 1
    return data[:at + 2] + byte + data[at + 2:]


def _status_across(lines, offset):
    """``lines`` joined, with "é" ending the status cell of the row before the one that holds
    character ``offset``, and zeros leading its s cell so that the two bytes of "é" straddle byte ``offset``."""
    row = _line_at(lines, offset) - 2
    parts = lines[row].split(",")
    zeros = offset - 1 - sum(map(len, lines[:row])) - row - len(",".join(parts[:9]))
    assert zeros >= 0
    parts[0] = "0" * zeros + parts[0]
    parts[8] += "é"
    return ("\n".join(lines[:row] + [",".join(parts)] + lines[row + 1:]) + "\n").encode("utf-8")


_B = READ_BLOCK_CHARS
_STRAY_BREAKS = {"vt": "\x0b", "ff": "\x0c", "fs": "\x1c", "nel": "\x85", "ls": "\u2028"}

# Each file's exit code and message (<path> stands for the file) from
# `scan --rays`, as the reader gave them when it read and split the whole
# text before checking any row.
RAYS_FILE_CASES = {
    "rows_514_and_515": (lambda: _joined(_bad_rows(_long_rays_lines(), {514: "s_not_a_number",
                                                                        515: "unknown_status"})),
                         "rays file <path> line 514: could not convert string to float: 'banana'"),
    "row_515": (lambda: _joined(_bad_rows(_long_rays_lines(), {515: "unknown_status"})),
                "rays file <path> line 515: unknown status 'bogus'"),
    "row_across_the_block_edge": (lambda: _joined(_bad_rows(_long_rays_lines(), {
        _line_at(_long_rays_lines(), _B): "unknown_status"})), "rays file <path> line 347: unknown status 'bogus'"),
    "row_starting_a_block": (lambda: _joined(_bad_rows(_long_rays_lines(), {
        _line_at(_long_rays_lines(), _B): "unknown_status"}), edge=_B - 1),
        "rays file <path> line 347: unknown status 'bogus'"),
    **{f"{name}_breaks_then_bad_row": (lambda brk=brk: _joined(
        _bad_rows(_long_rays_lines(), {700: "unknown_status"}), brk, upto=600, edge=_B - 1),
        "rays file <path> line 700: unknown status 'bogus'") for name, brk in _STRAY_BREAKS.items()},
    "crlf_across_the_block_edge": (lambda: _joined(_bad_rows(_long_rays_lines(), {700: "unknown_status"}), "\r\n",
                                                   edge=_B - 1).encode("utf-8"),
                                   "rays file <path> line 700: unknown status 'bogus'"),
    "row_over_three_blocks_then_bad_row": (lambda: _joined(_bad_rows(_padded(_long_rays_lines(), 300, 2 * _B),
                                                                     {700: "unknown_status"})),
                                           "rays file <path> line 700: unknown status 'bogus'"),
    "cr_newlines": (lambda: _joined(_bad_rows(_long_rays_lines(), {700: "unknown_status"}), "\r"),
                    "rays file <path> line 700: unknown status 'bogus'"),
    "two_byte_status_across_the_block_edge": (lambda: _status_across(_long_rays_lines(), _B),
                                              "rays file <path> line 346: unknown status 'propagatingé'"),
    "bad_utf8_after_a_bad_row": (lambda: _with_byte(_joined(_bad_rows(_long_rays_lines(),
                                                                      {20: "unknown_status"})), 900),
                                 "rays file <path> cannot be read: 'utf-8' codec can't decode byte 0xff in position "
                                 "161264: invalid start byte"),
    "bad_utf8_in_the_block_of_a_bad_row": (lambda: _with_byte(_joined(_bad_rows(_long_rays_lines(),
                                                                                {20: "unknown_status"})), 25),
                                           "rays file <path> cannot be read: 'utf-8' codec can't decode byte 0xff in "
                                           "position 4345: invalid start byte"),
    "bad_utf8_before_a_bad_row": (lambda: _with_byte(_joined(_bad_rows(_long_rays_lines(),
                                                                       {900: "unknown_status"})), 10),
                                  "rays file <path> cannot be read: 'utf-8' codec can't decode byte 0xff in position "
                                  "1413: invalid start byte"),
    "bad_utf8_after_a_bad_header": (lambda: _with_byte(_joined(["s,phi"] + _long_rays_lines()[1:]), 900),
                                    "rays file <path> cannot be read: 'utf-8' codec can't decode byte 0xff in "
                                    "position 161241: invalid start byte"),
}


class TestStreamedRaysCsv:
    @pytest.mark.parametrize("case", sorted(RAYS_FILE_CASES))
    def test_rays_file_error_parity(self, tmp_path, case):
        content, message = RAYS_FILE_CASES[case]
        path = tmp_path / "rays.csv"
        content = content()
        path.write_bytes(content) if isinstance(content, bytes) else path.write_text(content, newline="")
        got = _scan(tmp_path, path)
        message = message.replace("<path>", str(path))
        assert got == (2, json.dumps({"error": {"type": "ConfigError", "message": message}}) + "\n")

    @pytest.mark.parametrize("brk", [*_STRAY_BREAKS.values(), "\r", "\r\n"])
    def test_line_breaks_on_the_block_edge_read_the_same_rays(self, tmp_path, brk):
        lines = _long_rays_lines()
        path = tmp_path / "rays.csv"
        path.write_text(_joined(lines, brk, edge=_B - 1), newline="")
        assert read_rays_csv(path) == read_rays_csv(_write(tmp_path / "plain.csv", lines))

    def test_line_breaks_are_those_of_splitlines(self):
        assert LINE_BREAKS == {c for c in map(chr, range(0x110000)) if len(f"a{c}b".splitlines()) == 2}


class TestRayValidation:
    def test_direction_must_be_unit(self):
        with pytest.raises(ValueError, match=r"^ray direction must be unit length, \|d\| = 2\.0$"):
            _bundle([(Vec3(0, 0, 0), Vec3(0, 0, 2.0))])

    def test_weight_bounds(self):
        with pytest.raises(ValueError, match=r"^ray weight must be in \[0, 1\], got 1\.5$"):
            RayBundle(np.zeros((1, 3)), np.array([[0.0, 0.0, 1.0]]), np.array([1.5]))


def _bent_trace(grid=(10, 16)):
    """The README's bent element, traced: its rays focus near z = 86 mm."""
    field = record(W65, W0, SurfaceProfile.planar(10.0), PolarGrid(*grid))
    return trace_field(induce_forward(field, SurfaceProfile.sphere_cap(50.0, 10.0), Projection.orthogonal()), W65)


def _hand_built(bundle, i):
    """The ray of a one-row bundle built from the values of row ``i`` of ``bundle``."""
    (ray,) = RayBundle(np.array([bundle.origins[i].tolist()]), np.array([bundle.directions[i].tolist()]),
                       np.array([float(bundle.weights[i])]))
    return ray


def _copy(bundle, rows):
    return RayBundle(bundle.origins[rows].copy(), bundle.directions[rows].copy(), bundle.weights[rows].copy())


class TestRayViews:
    def test_hand_built_ray_equals_its_views(self):
        trace = _bent_trace()
        bundle = trace.rays()
        ray = _hand_built(bundle, 7)
        for view in (list(bundle)[7], list(trace)[7].ray, list(_copy(bundle, slice(None)))[7]):
            assert view == ray and ray == view
            assert (view.origin, view.direction, view.weight) == (ray.origin, ray.direction, ray.weight)
        assert list(bundle)[6] != ray and ray != (ray.origin, ray.direction, ray.weight)

    def test_bundle_views_and_mixed_lists_analyse_alike(self):
        trace = _bent_trace()
        bundle = trace.rays()
        views = [rec.ray for rec in trace if rec.ray is not None]
        n = len(bundle)
        a, b = _copy(bundle, slice(n // 3, 2 * n // 3)), _copy(bundle, slice(2 * n // 3, n))
        mixed = [_hand_built(bundle, i) for i in range(n // 3)] + list(a) + list(b)
        assert bundle == views == mixed
        results = []
        for rays in (bundle, views, mixed):
            hits = intersect_plane(rays, 86.0)
            results.append((hits.z0, hits.index.tolist(), hits.xy.tolist(), hits.parallel, hits.behind,
                            focal_scan(rays, (80.0, 92.0), 241)))
        assert results[0] == results[1] == results[2]
        assert results[0][5].z_min_rms_x == pytest.approx(85.75, abs=1e-9)

    def test_views_read_read_only_arrays(self):
        trace = _bent_trace((2, 4))
        for a in (*trace.rays()._arrays, trace.pos, trace.direction, trace.eta, trace.status):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0

    @pytest.mark.parametrize("row, message", [
        (([0.0, 0.0, 0.0], [0.0, 0.0, 2.0], 1.0), "ray direction must be unit length, |d| = 2.0"),
        (([0.0, 0.0, 0.0], [0.0, 0.6, 0.8], 1.5), "ray weight must be in [0, 1], got 1.5"),
        (([math.nan, 0.0, 0.0], [0.0, 0.0, 1.0], 1.0), "Vec3 components must be finite, got (nan, 0.0, 0.0)"),
        (([0.0, 0.0, 0.0], [math.inf, 0.0, 1.0], 1.0), "Vec3 components must be finite, got (inf, 0.0, 1.0)"),
        (([0.0, 0.0, 0.0], [0.0, 0.0, 1.0], math.nan), "ray weight must be in [0, 1], got nan"),
        (([1e200, 0.0, 0.0], [1e200, 0.0, 1.0], -1.0), "ray direction must be unit length, |d| = inf"),
        # within 1e-12 of unit length: the last row is the first bad one
        (([0.0, 0.0, 0.0], [0.6, 0.0, 0.8 + 2e-16], 1.0), "ray direction must be unit length, |d| = 1.7320508075688772"),
    ], ids=["non_unit_direction", "weight", "nan_origin", "infinite_direction", "nan_weight",
            "overflowing_direction", "unit_within_tolerance"])
    def test_bundle_rejects_the_rows_a_ray_rejects(self, row, message):
        good = ([1.0, 2.0, 3.0], [0.0, 0.0, 1.0], 0.5)
        rows = [good, row, good, ([0.0, 0.0, 0.0], [1.0, 1.0, 1.0], 2.0)]  # the first bad row is named
        with pytest.raises(ValueError) as bundle:
            RayBundle(*(np.array([r[k] for r in rows], dtype=float) for k in range(3)))
        assert str(bundle.value) == message


def test_trace_views_build_no_vec3(monkeypatch):
    # a Ray view reads its row of the trace arrays; building the list of
    # views and intersecting it constructs no Vec3 (eager views built 2 per ray)
    trace = _bent_trace((40, 64))
    built = []
    post_init = Vec3.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(Vec3, "__post_init__", counting)
    rays = [rec.ray for rec in trace if rec.ray is not None]
    hits = intersect_plane(rays, 86.0)
    assert len(rays) == 2561 and hits.index.size == 2561
    assert built == []
    assert rays[0].origin == Vec3(*trace.pos[0].tolist()) and len(built) == 2  # reading builds them
