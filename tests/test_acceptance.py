"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Every tolerance is pinned here; nothing is deferred to calibration.
"""

import json
import math
import os
import subprocess
import sys
import time
from collections import namedtuple
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import least_squares

from hoedeform.deformation import induce_forward, induce_inverse
from hoedeform.diffraction import PROPAGATING, DiffractionStatus, closure
from hoedeform.geometry import Vec3, norms
from hoedeform.recording import BraggIsosurfaceSpec, PolarGrid, check_isosurface, record
from hoedeform.scene import focal_scan, trace_field
from hoedeform.surfaces import Projection, SurfaceProfile
from hoedeform.waves import Wave, Wavelength, interference_intensity, local_wavevector

SRC = Path(__file__).resolve().parent.parent / "src"
CONFIG_DIR = SRC / "hoedeform" / "configs"

LAM = Wavelength(500.0)
SIN65, COS65 = math.sin(math.radians(65)), math.cos(math.radians(65))
W65 = Wave.plane(Vec3(SIN65, 0.0, COS65), LAM)
W0 = Wave.plane(Vec3(0.0, 0.0, 1.0), LAM)


@contextmanager
def criterion(num: int, label: str):
    try:
        yield
    except Exception:
        print(f"[FAIL] acceptance {num}: {label}")
        raise
    print(f"[PASS] acceptance {num}: {label}")


Basis = namedtuple("Basis", "t b n")  # an orthonormal triple of Vec3


def _random_frame(rng) -> Basis:
    while True:
        a = Vec3(*rng.normal(0, 1, 3))
        b = Vec3(*rng.normal(0, 1, 3))
        if a.norm() > 0.1 and a.cross(b).norm() > 0.1:
            t = a.normalized()
            bb = (b - t * t.dot(b)).normalized()
            return Basis(t, bb, t.cross(bb))


def _frame_rows(frames) -> tuple:
    """The t, b and n vectors of ``frames`` as three N x 3 arrays."""
    return tuple(np.array([getattr(f, axis).as_tuple() for f in frames]) for axis in "tbn")


def _random_recordings(rng, carrier):
    """Mixed plane/spherical wave pairs for randomized field construction."""
    lam = Wavelength(rng.uniform(420.0, 680.0))

    def updir():
        v = Vec3(rng.normal(0, 0.5), rng.normal(0, 0.5), 1.0)
        return v.normalized()

    pairs = [
        (Wave.plane(updir(), lam), Wave.plane(updir(), lam)),
        (Wave.diverging(Vec3(rng.uniform(-30, 30), rng.uniform(-30, 30), rng.uniform(-80, -20)), lam),
         Wave.converging(Vec3(rng.uniform(-10, 10), rng.uniform(-10, 10), rng.uniform(30, 120)), lam)),
        (Wave.plane(updir(), lam),
         Wave.converging(Vec3(rng.uniform(-10, 10), rng.uniform(-10, 10), rng.uniform(30, 120)), lam)),
    ]
    return [record(w1, w2, carrier, PolarGrid(31, 20)) for w1, w2 in pairs]


def test_criterion_1_length_preservation():
    with criterion(1, "grating vector length preserved under induced transport"):
        rng = np.random.default_rng(101)
        flat = SurfaceProfile.planar(10.0)
        targets = [SurfaceProfile.sphere_cap(r, 10.0) for r in (30.0, 50.0, 100.0)]
        start = time.monotonic()
        checked = 0
        worst = 0.0
        for field in _random_recordings(rng, flat):
            for target in targets:
                projections = [
                    Projection.orthogonal(),
                    Projection.from_center_z(rng.uniform(50.0, 5000.0)),
                ]
                for proj in projections:
                    induced = induce_forward(field, target, proj)
                    for src, dst in zip(field.samples, induced.samples):
                        if src.magnitude < 1e-9:
                            continue
                        dev = abs(dst.magnitude - src.magnitude) / src.magnitude
                        dev_world = abs(dst.kg_world().norm() - src.kg_world().norm()) / src.magnitude
                        worst = max(worst, dev, dev_world)
                        checked += 1
        elapsed = time.monotonic() - start
        assert checked >= 10_000, f"only {checked} samples checked"
        assert worst <= 1e-12, f"worst relative deviation {worst}"
        assert elapsed < 5.0, f"runtime {elapsed:.2f} s exceeds budget"


def test_criterion_2_inverse_forward_round_trip():
    with criterion(2, "inverse/forward induction round trips reproduce fields"):
        flat = SurfaceProfile.planar(10.0)
        plane_pair = record(W65, W0, flat, PolarGrid(6, 12))
        sphere_pair = record(
            Wave.diverging(Vec3(-30.0, 0.0, -40.0), LAM),
            Wave.converging(Vec3(0.0, 0.0, 80.0), LAM),
            flat, PolarGrid(6, 12),
        )
        for radius in (30.0, 50.0, 100.0):
            cap = SurfaceProfile.sphere_cap(radius, 10.0)
            curved_target = record(W65, W0, cap, PolarGrid(6, 12))
            for proj in (Projection.orthogonal(), Projection.from_center_z(100.0), Projection.from_center_z(1000.0)):
                for field in (plane_pair, sphere_pair):
                    fwd = induce_forward(field, cap, proj)
                    back = induce_inverse(fwd, proj)
                    _assert_fields_close(field, back)
                # opposite direction: start from a field on the curved carrier
                planar = induce_inverse(curved_target, proj)
                again = induce_forward(planar, cap, proj)
                _assert_fields_close(curved_target, again)


def _assert_fields_close(a, b, pos_tol=1e-10, coord_tol=1e-12):
    assert len(a.samples) == len(b.samples)
    for sa, sb in zip(a.samples, b.samples):
        assert (sa.position - sb.position).norm() <= pos_tol
        scale = max(1.0, sa.magnitude)
        for ga, gb in zip(sa.coords, sb.coords):
            assert abs(ga - gb) <= coord_tol * scale


def _sphere_search_oracle(kp: Vec3, kg: Vec3, frame: Basis) -> Vec3:
    """Brute-force search over |v| = |kp| minimizing tangential mismatch."""
    w = kg + kp
    wt, wb, wn = w.dot(frame.t), w.dot(frame.b), w.dot(frame.n)
    klen = kp.norm()

    def components(x):
        theta, psi = x
        st = math.sin(theta)
        return klen * st * math.cos(psi), klen * st * math.sin(psi), klen * math.cos(theta)

    def residual(x):
        vt, vb, _ = components(x)
        return [vt - wt, vb - wb]

    # coarse scan of a 30 x 30 angle grid, first minimum in (theta, psi) order
    theta, psi = np.meshgrid(np.linspace(0.02, math.pi - 0.02, 30), np.linspace(-math.pi, math.pi, 30, endpoint=False),
                             indexing="ij")
    cost = (klen * np.sin(theta) * np.cos(psi) - wt) ** 2 + (klen * np.sin(theta) * np.sin(psi) - wb) ** 2
    best = np.unravel_index(np.argmin(cost), cost.shape)
    sol = least_squares(residual, (theta[best], psi[best]), xtol=3e-16, ftol=3e-16, gtol=3e-16)
    vt, vb, vn = components(sol.x)
    if wn == 0.0:
        vn = abs(vn)
    elif (wn < 0.0) != (vn < 0.0):
        vn = -vn
    return frame.t * vt + frame.b * vb + frame.n * vn


def test_criterion_3_energy_conservation():
    with criterion(3, "energy-conserving closure: |kd| = |kp| and oracle agreement"):
        rng = np.random.default_rng(103)
        frames = _frame_rows([_random_frame(rng) for _ in range(500)])
        n_cases = 100_000
        dirs = rng.normal(0, 1, (n_cases, 3))
        grates = rng.normal(0, 1, (n_cases, 3))
        lams = rng.uniform(400.0, 700.0, n_cases)
        scales = rng.uniform(0.0, 1.2, n_cases)
        k = 2000.0 * math.pi / lams
        kp = dirs / norms(dirs)[:, None] * k[:, None]
        g_len = norms(grates)
        kg = np.zeros_like(grates)
        live = g_len > 1e-12
        kg[live] = grates[live] * (scales * k / np.where(live, g_len, 1.0))[live, None]
        cycle = np.arange(n_cases) % 500
        kd, status, _ = closure(kp, kg, *(v[cycle] for v in frames), "energy")
        prop = status == PROPAGATING
        assert prop.sum() > 10_000
        worst = float((np.abs(norms(kd) - k) / k)[prop].max())
        assert worst <= 1e-12, f"worst |kd|/|kp| deviation {worst}"

        # closed form against the brute-force sphere search, on the first 200
        # propagating cases drawn
        cases = []
        for _ in range(400):
            frame = _random_frame(rng)
            k = 2000.0 * math.pi / rng.uniform(400.0, 700.0)
            kp = Vec3(*rng.normal(0, 1, 3)).normalized() * k
            kg = Vec3(*rng.normal(0, 1, 3))
            cases.append((kp, kg * (rng.uniform(0.0, 1.0) * k / kg.norm()), frame))
        kd, status, _ = closure(np.array([c[0].as_tuple() for c in cases]), np.array([c[1].as_tuple() for c in cases]),
                                *_frame_rows([c[2] for c in cases]), "energy")
        rows = np.flatnonzero(status == PROPAGATING)[:200]
        assert rows.size == 200
        for i in rows:
            oracle = _sphere_search_oracle(*cases[i])
            err = (Vec3(*kd[i]) - oracle).norm()
            assert err <= 1e-8, f"oracle disagreement {err}"


def test_criterion_4_on_bragg_reconstruction():
    with criterion(4, "on-Bragg replay reproduces the second recording wave"):
        field = record(W65, W0, SurfaceProfile.planar(10.0), PolarGrid(10, 16))
        k2_dir = W0.direction
        records = trace_field(field, W65, mode="energy")
        assert all(r.status is DiffractionStatus.PROPAGATING for r in records)
        worst = 0.0
        for rec in records:
            d = rec.ray.direction
            worst = max(worst, math.atan2(d.cross(k2_dir).norm(), d.dot(k2_dir)))
        assert worst <= 1e-9, f"worst angular error {worst} rad"


def test_criterion_5_curved_recording_control():
    with criterion(5, "recording on the curved carrier still replays a parallel bundle"):
        cap = SurfaceProfile.sphere_cap(50.0, 10.0)
        field = record(W65, W0, cap, PolarGrid(10, 16))
        records = trace_field(field, W65, mode="energy")
        dirs = [r.ray.direction for r in records if r.ray is not None]
        assert len(dirs) == len(field.samples)
        worst = 0.0
        for i in range(len(dirs)):
            for j in range(i + 1, len(dirs)):
                a, b = dirs[i], dirs[j]
                worst = max(worst, math.atan2(a.cross(b).norm(), a.dot(b)))
        assert worst < 1e-9, f"angular spread {worst} rad"


def test_criterion_6_deformation_causes_astigmatic_focus():
    with criterion(6, "bending after recording focuses the bundle astigmatically"):
        flat = SurfaceProfile.planar(10.0)  # 20 mm aperture
        cap = SurfaceProfile.sphere_cap(50.0, 10.0)
        field = record(W65, W0, flat, PolarGrid(10, 16))
        deformed = induce_forward(field, cap, Projection.orthogonal())
        records = trace_field(deformed, W65, mode="energy")
        rays = [r.ray for r in records if r.ray is not None]

        # converging: over a wide range the bundle collapses to a deep
        # interior waist (an order of magnitude tighter than at the start)
        wide = focal_scan(rays, (20.0, 150.0), 131)
        assert wide.bracketed_total
        waist = min(wide.reports[:, 5].tolist())
        assert waist < 0.2 * wide.reports[0, 5]

        # fine scan around the waist resolves the astigmatic split
        scan = focal_scan(rays, (80.0, 92.0), 241)
        assert scan.bracketed_total and scan.bracketed_x and scan.bracketed_y
        assert scan.astigmatism_mm > 3.0 * scan.plane_spacing, (
            f"astigmatism {scan.astigmatism_mm} mm vs spacing {scan.plane_spacing} mm"
        )


def test_criterion_7_combiner_focal_shift():
    with criterion(7, "deformed point-source combiner focuses short of its design point"):
        f_design = 80.0
        flat = SurfaceProfile.planar(10.0)
        cap = SurfaceProfile.sphere_cap(50.0, 10.0)
        probe = Wave.diverging(Vec3(-30.0, 0.0, -40.0), LAM)
        field = record(probe, Wave.converging(Vec3(0.0, 0.0, f_design), LAM), flat, PolarGrid(10, 16))

        # control: the undeformed element focuses at the design point
        control = trace_field(field, probe, mode="energy")
        scan0 = focal_scan([r.ray for r in control], (40.0, 110.0), 701)
        assert abs(scan0.z_min_rms_total - f_design) <= scan0.plane_spacing

        deformed = induce_forward(field, cap, Projection.orthogonal())
        records = trace_field(deformed, probe, mode="energy")
        rays = [r.ray for r in records if r.ray is not None]
        scan = focal_scan(rays, (40.0, 80.0), 801)
        assert scan.bracketed_total and scan.bracketed_x and scan.bracketed_y
        assert scan.z_min_rms_total < f_design, "focus did not move toward the element"
        assert scan.astigmatism_mm > 3.0 * scan.plane_spacing, (
            f"astigmatism {scan.astigmatism_mm} mm vs spacing {scan.plane_spacing} mm"
        )


def test_replay_by_the_recording_source_focuses_exactly():
    # criterion 7's control to within the floating-point error: replayed by its
    # own source, the unbent combiner images point to point onto its design point,
    # so the exact RMS minima of focal_scan sit there on the plane and on the cap
    f_design = 80.0
    probe = Wave.diverging(Vec3(-30.0, 0.0, -40.0), LAM)
    design = Wave.converging(Vec3(0.0, 0.0, f_design), LAM)
    for carrier in (SurfaceProfile.planar(10.0), SurfaceProfile.sphere_cap(50.0, 10.0)):
        field = record(probe, design, carrier, PolarGrid(10, 16))
        scan = focal_scan(trace_field(field, probe, mode="energy").rays(), (40.0, 110.0), 701)
        for z_star in (scan.z_star_x, scan.z_star_y, scan.z_star_total):
            assert abs(z_star - f_design) <= 1e-9, f"{carrier.kind}: z* = {z_star}"


def test_criterion_8_bragg_structure_oracles():
    with criterion(8, "fringe period and ellipsoidal isosurfaces match their oracles"):
        # three-point phase fit of the plane-wave fringe period
        k1 = local_wavevector(W65, Vec3(0, 0, 0))
        k2 = local_wavevector(W0, Vec3(0, 0, 0))
        kg = k2 - k1
        period_um = 2.0 * math.pi / kg.norm()
        u = kg.normalized()
        amp_bias = 2.0  # A1^2 + A2^2 for unit amplitudes
        step_mm = 1.0 / (kg.norm() * 1000.0)  # one radian of fringe phase
        samples = [
            interference_intensity(W65, W0, u * (step_mm * j)) for j in range(3)
        ]
        delta = math.acos((samples[0] + samples[2] - 2.0 * amp_bias) / (2.0 * (samples[1] - amp_bias)))
        fitted_period_um = 2.0 * math.pi * step_mm * 1000.0 / delta
        assert abs(fitted_period_um - period_um) <= 1e-10, (
            f"fitted {fitted_period_um} vs {period_um} um"
        )

        # diverging/converging interference constant on ellipsoids
        w1 = Wave.diverging(Vec3(0.0, 0.0, 0.0), LAM)
        w2 = Wave.converging(Vec3(0.0, 0.0, 10.0), LAM)
        spec = BraggIsosurfaceSpec(Vec3(0.0, 0.0, 0.0), Vec3(0.0, 0.0, 10.0), 20.0)
        a, b, zc = 10.0, math.sqrt(75.0), 5.0
        points = []
        for i in range(60):
            uang = math.pi * (i + 0.5) / 60
            for psi in (0.0, 0.7, 1.9, 3.4, 5.1):
                points.append(Vec3(
                    b * math.sin(uang) * math.cos(psi),
                    b * math.sin(uang) * math.sin(psi),
                    zc + a * math.cos(uang),
                ))
        report = check_isosurface(w1, w2, spec, points)
        assert report.max_phase_spread_rad <= 1e-9, f"phase spread {report.max_phase_spread_rad}"
        assert report.max_collinearity_residual <= 1e-9


def test_criterion_9_run_determinism(tmp_path):
    with criterion(9, "pipeline runs are byte-identical on the shipped configs"):
        configs = [
            "plane_wave_planar.json",
            "plane_wave_curved_recorded.json",
            "plane_wave_deformed.json",
            "combiner_deformed.json",
        ]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
        for name in configs:
            outs = []
            for tag in ("a", "b"):
                out = tmp_path / f"{name.removesuffix('.json')}_{tag}"
                res = subprocess.run(
                    [sys.executable, "-m", "hoedeform.cli", "run",
                     "--config", str(CONFIG_DIR / name), "--out", str(out)],
                    capture_output=True, text=True, env=env,
                )
                assert res.returncode == 0, f"{name}: {res.stderr}"
                outs.append(out)
            first, second = outs
            names_a = sorted(p.name for p in first.iterdir())
            names_b = sorted(p.name for p in second.iterdir())
            assert names_a == names_b
            for fname in names_a:
                assert (first / fname).read_bytes() == (second / fname).read_bytes(), (
                    f"{name}: {fname} differs between runs"
                )
