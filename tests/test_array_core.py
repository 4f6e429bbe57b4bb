"""The array field core against the per-sample loops it replaced (tests/oracles.py).

Every float must agree within the tests/reference rule (1e-12 relative, or
absolute below magnitude 1); statuses and errors must agree exactly.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from hoedeform.deformation import induce_forward, induce_inverse, resample_field
from hoedeform.errors import NoIntersection, NoPreimage, PointNotOnEllipsoid
from hoedeform.geometry import Vec3
from hoedeform.recording import (BraggIsosurfaceSpec, CartesianGrid, GratingVectorField, PolarGrid, check_isosurface,
                                 record)
from hoedeform.scene import trace_field
from hoedeform.surfaces import Projection, SurfaceProfile
from hoedeform.waves import Wave, Wavelength

LAM = Wavelength(500.0)
W0 = Wave.plane(Vec3(0, 0, 1), LAM)
W65 = Wave.plane(Vec3(math.sin(math.radians(65)), 0.0, math.cos(math.radians(65))), LAM)
SOURCE = Wave.diverging(Vec3(-30, 0, -40), LAM)
TARGET = Wave.converging(Vec3(0, 0, 80), LAM)
FLAT = SurfaceProfile.planar(10.0)
CAP = SurfaceProfile.sphere_cap(50.0, 10.0)
QUARTIC = SurfaceProfile.custom_convex(lambda s: s * s / 40.0 + s ** 4 / 2e4, 10.0,
                                       slope=lambda s: s / 20.0 + s ** 3 / 5e3)

RECORDINGS = {
    "plane_pair_flat_polar": (W0, W65, FLAT, PolarGrid(4, 8)),
    "combiner_flat_polar": (SOURCE, TARGET, FLAT, PolarGrid(5, 12)),
    "combiner_cap_polar": (SOURCE, TARGET, CAP, PolarGrid(4, 10)),
    "combiner_flat_cartesian": (SOURCE, TARGET, FLAT, CartesianGrid(7, 6, 9.0)),
    "combiner_custom_polar": (SOURCE, TARGET, QUARTIC, PolarGrid(3, 7)),
}
PROJECTIONS = {"orthogonal": Projection.orthogonal(), "central": Projection.from_center_z(300.0)}


def _assert_field(field, rows, what):
    oracles.assert_rows_close(oracles.field_rows(field), rows, what)


def _assert_trace(trace, want, what):
    assert [rec.status.value for rec in trace] == [w[0] for w in want], f"{what}: statuses"
    for rec, (status, kd, direction, mismatch) in zip(trace, want):
        res = rec.result
        assert oracles.close(res.mismatch, mismatch), what
        if kd is None:
            assert res.kd is None and rec.ray is None, what
        else:
            oracles.assert_rows_close([res.kd.as_tuple(), rec.ray.direction.as_tuple()], [kd, direction], what)
            assert rec.ray.origin == rec.position


@pytest.mark.parametrize("case", sorted(RECORDINGS))
def test_record(case):
    w1, w2, carrier, grid = RECORDINGS[case]
    _assert_field(record(w1, w2, carrier, grid), oracles.record_rows(w1, w2, carrier, grid), case)


@pytest.mark.parametrize("target", [CAP, QUARTIC], ids=["cap", "custom"])
@pytest.mark.parametrize("projection", sorted(PROJECTIONS))
@pytest.mark.parametrize("grid", [PolarGrid(5, 12), CartesianGrid(7, 6, 9.0)], ids=["polar", "cartesian"])
def test_induce_forward(target, projection, grid):
    field = record(SOURCE, TARGET, FLAT, grid)
    proj = PROJECTIONS[projection]
    want = oracles.induce_forward_rows(oracles.field_rows(field), target, proj)
    _assert_field(induce_forward(field, target, proj), want, projection)


@pytest.mark.parametrize("carrier", [CAP, QUARTIC], ids=["cap", "custom"])
@pytest.mark.parametrize("projection", sorted(PROJECTIONS))
def test_induce_inverse(carrier, projection):
    field = record(SOURCE, TARGET, carrier, PolarGrid(5, 12))
    proj = PROJECTIONS[projection]
    want = oracles.induce_inverse_rows(oracles.field_rows(field), carrier, proj)
    _assert_field(induce_inverse(field, proj), want, projection)


def _mixed_field():
    """A strong plane-pair grating with every third sample's kg zeroed: a
    normal probe is evanescent on the grating samples in energy mode and
    passes through the zeroed ones."""
    wide = Wave.plane(Vec3(-math.sin(math.radians(65)), 0.0, math.cos(math.radians(65))), LAM)
    base = record(wide, W65, CAP, PolarGrid(4, 9))
    g = base.g.copy()
    g[::3] = 0.0
    return GratingVectorField(base.carrier, base.s, base.phi, base.pos, g, base.grid, base.wavelength_nm)


@pytest.mark.parametrize("mode", ["basic", "energy"])
@pytest.mark.parametrize("case", ["mixed", "combiner_deformed"])
def test_trace(mode, case):
    if case == "mixed":
        field, probe = _mixed_field(), W0
    else:
        field = induce_forward(record(SOURCE, TARGET, FLAT, PolarGrid(5, 12)), CAP, PROJECTIONS["central"])
        probe = SOURCE
    want = oracles.trace_rows(oracles.field_rows(field), field.carrier, probe, mode)
    statuses = {w[0] for w in want}
    if case == "mixed":
        assert "pass_through" in statuses and ("evanescent" in statuses) == (mode == "energy")
    _assert_trace(trace_field(field, probe, mode=mode), want, f"{case} {mode}")


COORD = st.floats(-3.0, 3.0, allow_nan=False)


@settings(max_examples=25, deadline=None, database=None, derandomize=True)
@given(source=st.tuples(st.floats(-40.0, -20.0), COORD, st.floats(-50.0, -30.0)),
       target=st.tuples(COORD, COORD, st.floats(60.0, 100.0)),
       radius=st.floats(30.0, 200.0), center_z=st.floats(100.0, 900.0),
       n_s=st.integers(1, 5), n_phi=st.integers(1, 9), mode=st.sampled_from(["basic", "energy"]))
def test_drawn_geometry(source, target, radius, center_z, n_s, n_phi, mode):
    """record -> central induce_forward -> induce_inverse -> trace on a drawn combiner geometry."""
    w1, w2 = Wave.diverging(Vec3(*source), LAM), Wave.converging(Vec3(*target), LAM)
    cap = SurfaceProfile.sphere_cap(radius, 10.0)
    proj = Projection.from_center_z(center_z)
    field = record(w1, w2, FLAT, PolarGrid(n_s, n_phi))
    rows = oracles.record_rows(w1, w2, FLAT, PolarGrid(n_s, n_phi))
    _assert_field(field, rows, "record")
    bent = induce_forward(field, cap, proj)
    bent_rows = oracles.induce_forward_rows(rows, cap, proj)
    _assert_field(bent, bent_rows, "induce_forward")
    _assert_field(induce_inverse(bent, proj), oracles.induce_inverse_rows(oracles.field_rows(bent), cap, proj),
                  "induce_inverse")
    _assert_trace(trace_field(bent, w1, mode=mode),
                  oracles.trace_rows(oracles.field_rows(bent), cap, w1, mode), "trace")


@pytest.mark.parametrize("vertex", [True, False], ids=["vertex", "no_vertex"])
def test_resample_field(vertex):
    field = record(SOURCE, TARGET, CAP, PolarGrid(5, 7, include_vertex=vertex))
    grid = PolarGrid(4, 11, s_max=9.5, include_vertex=vertex)
    s, phi = grid.footprint_arrays(CAP.domain_radius)
    want = oracles.resample_rows(oracles.field_rows(field), CAP, 5, 7, vertex, zip(s.tolist(), phi.tolist()))
    _assert_field(resample_field(field, grid), want, "resample_field")


# ---------------------------------------------------------------------------
# a failing sample in the middle of a field: same error and context as the loop
# ---------------------------------------------------------------------------

def _same_error(run, oracle, exc_type):
    with pytest.raises(exc_type) as want:
        oracle()
    with pytest.raises(exc_type) as got:
        run()
    assert str(got.value) == str(want.value)
    return str(got.value)


@pytest.mark.parametrize("target", [CAP, QUARTIC], ids=["cap", "custom"])
def test_forward_failure_names_first_failing_sample(target):
    # the plane disc reaches beyond the preimage of the target rim, so the
    # outer rings miss the graph; the first of them sits mid-field
    field = record(SOURCE, TARGET, SurfaceProfile.planar(20.0), PolarGrid(6, 8))
    proj = PROJECTIONS["central"]
    msg = _same_error(lambda: induce_forward(field, target, proj),
                      lambda: oracles.induce_forward_rows(oracles.field_rows(field), target, proj), NoIntersection)
    i = int(msg.split()[1])
    assert 0 < i < len(field) - 1


def test_inverse_failure_names_first_failing_sample():
    # convex profile falling from h(0) = 64 to h(10) = 4: the center at z = 30
    # clears the rim but lies below the samples near the axis, which a
    # cartesian grid puts mid-field
    bowl = SurfaceProfile.custom_convex(lambda s: (s - 8.0) ** 2, 10.0, slope=lambda s: 2.0 * (s - 8.0))
    field = record(SOURCE, TARGET, bowl, CartesianGrid(5, 5, 7.0))
    proj = Projection.from_center_z(30.0)
    msg = _same_error(lambda: induce_inverse(field, proj),
                      lambda: oracles.induce_inverse_rows(oracles.field_rows(field), bowl, proj), NoPreimage)
    i = int(msg.split()[1])
    assert 0 < i < len(field) - 1


def test_field_arrays_are_read_only_and_sized_per_sample():
    field = record(SOURCE, TARGET, CAP, PolarGrid(3, 5))
    for name in ("s", "phi", "pos", "g"):
        with pytest.raises(ValueError):
            getattr(field, name)[0] = 1.0
    assert field.s.nbytes + field.phi.nbytes + field.pos.nbytes + field.g.nbytes == 64 * len(field)
    # the per-sample views read the same rows
    views = field.samples
    assert [(v.footprint.s, v.footprint.phi) for v in views] == list(zip(field.s.tolist(), field.phi.tolist()))
    assert [v.position.as_tuple() for v in views] == [tuple(p) for p in field.pos.tolist()]
    assert [(v.coords.g1, v.coords.g2, v.coords.g3) for v in views] == [tuple(g) for g in field.g.tolist()]
    t, b, n = field.frames()
    assert [v.frame.t.as_tuple() + v.frame.b.as_tuple() + v.frame.n.as_tuple() for v in views] == [
        tuple(row) for row in np.hstack((t, b, n)).tolist()]


@pytest.mark.parametrize("change, error", [
    (lambda a: a["g"].__setitem__((2, 1), np.inf), ValueError),
    (lambda a: a["phi"].__setitem__(3, 7.0), ValueError),
    (lambda a: a["s"].__setitem__(4, a["s"][1]) or a["phi"].__setitem__(4, a["phi"][1]), ValueError),
])
def test_constructor_names_first_failing_sample(change, error):
    field = record(W0, W65, FLAT, PolarGrid(2, 4))
    arrays = {k: getattr(field, k).copy() for k in ("s", "phi", "pos", "g")}
    change(arrays)
    with pytest.raises(error, match=r"^sample \d \(s="):
        GratingVectorField(FLAT, arrays["s"], arrays["phi"], arrays["pos"], arrays["g"], field.grid, 500.0)


def test_overflow_behaves_as_float_math():
    """Coordinates near the float limit overflow to inf as in scalar float
    math: energy closure finds no propagating order, basic closure has no
    unit ray direction (ValueError), and no numpy warning is raised."""
    base = record(W0, W65, FLAT, PolarGrid(2, 4))
    huge = GratingVectorField(FLAT, base.s, base.phi, base.pos, np.full(base.g.shape, 1e300), base.grid, 500.0)
    assert trace_field(huge, W0, mode="energy").counts()["evanescent"] == len(huge)
    with pytest.raises(ValueError, match=r"^sample 0 \(s=0\.0, phi=0\.0\): ray direction must be unit length"):
        trace_field(huge, W0, mode="basic")
    far = Wave.diverging(Vec3(1e300, 1e300, -1e300), LAM)
    oracles.assert_rows_close(oracles.field_rows(record(far, W0, FLAT, PolarGrid(1, 2))),
                              oracles.record_rows(far, W0, FLAT, PolarGrid(1, 2)), "far source")


def _ellipsoid_points(n_u, n_psi, a=10.0, b=math.sqrt(75.0), zc=5.0):
    """Points on the ellipsoid with foci (0, 0, 0) and (0, 0, 10) and distance sum 2a = 20."""
    return [Vec3(b * math.sin(u) * math.cos(psi), b * math.sin(u) * math.sin(psi), zc + a * math.cos(u))
            for u in (math.pi * (i + 0.5) / n_u for i in range(n_u))
            for psi in (2.0 * math.pi * j / n_psi + 0.3 for j in range(n_psi))]


ISOSURFACE_POINTS = {
    "empty": [],
    "equator_and_pole": [Vec3(math.sqrt(75.0), 0.0, 5.0), Vec3(0.0, 0.0, -5.0)],
    "ellipsoid": _ellipsoid_points(30, 7),
    "second_point_off": [Vec3(math.sqrt(75.0), 0.0, 5.0), Vec3(0.0, 0.0, 16.0), Vec3(0.0, 0.0, 17.0)],
}


@pytest.mark.parametrize("case", sorted(ISOSURFACE_POINTS))
def test_check_isosurface_is_the_point_loop(case):
    # the report is bit-identical: same formulas, same order, so == and not the 1e-12 rule
    w1, w2 = Wave.diverging(Vec3(0.0, 0.0, 0.0), LAM), Wave.converging(Vec3(0.0, 0.0, 10.0), LAM)
    spec = BraggIsosurfaceSpec(w1.point, w2.point, 20.0)
    points = ISOSURFACE_POINTS[case]
    try:
        want = oracles.isosurface_report(w1, w2, spec, points)
    except PointNotOnEllipsoid as exc:
        with pytest.raises(PointNotOnEllipsoid) as got:
            check_isosurface(w1, w2, spec, points)
        assert str(got.value) == str(exc)
        return
    report = check_isosurface(w1, w2, spec, iter(points))
    assert (report.n_points, report.max_sum_deviation_mm, report.max_phase_spread_rad,
            report.max_collinearity_residual) == want
