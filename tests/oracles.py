"""Per-sample reference loops for the array field core.

Each function below is the scalar form the package computed one sample at
a time before fields became arrays: plain floats and ``math``, no numpy and
no package kernel, so a test can compare the array code with an
independent evaluation of the same formulas. Errors carry the messages and
the ``sample {i} (s=..., phi=...)`` context of the scalar code.

``bend_focal_shift_limits`` is the one reference taken from optics rather
than from the code: the paraxial focal shift that bending adds, read off a
scene config's numbers.
"""

import bisect
import math
import sys

from hoedeform.diffraction import STATUSES
from hoedeform.errors import DomainError, NoIntersection, NoPreimage, NotOnSurface, PointNotOnEllipsoid, SingularPoint
from hoedeform.geometry import Vec3
from hoedeform.recording import GratingSample
from hoedeform.surfaces import DOMAIN_GUARD
from hoedeform.units import UM_PER_MM
from hoedeform.waves import SOURCE_EXCLUSION_MM, WaveKind

TWO_PI = 2.0 * math.pi
REL_TOL = 1e-12  # the tests/reference rule


def close(a, b) -> bool:
    """The tests/reference rule: relative 1e-12, absolute 1e-12 below magnitude 1."""
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), 1.0)


def assert_rows_close(got, want, what: str) -> None:
    got, want = [list(map(float, r)) for r in got], [list(map(float, r)) for r in want]
    assert len(got) == len(want), f"{what}: {len(got)} rows, expected {len(want)}"
    for i, (g, w) in enumerate(zip(got, want)):
        assert len(g) == len(w) and all(close(a, b) for a, b in zip(g, w)), f"{what} row {i}: {g} vs {w}"


def _add(a, b):
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2])


def _sub(a, b):
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def _mul(a, k):
    return (a[0] * k, a[1] * k, a[2] * k)


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _norm(a):
    return math.sqrt(_dot(a, a))


def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def _require_radius(profile, s):
    if not math.isfinite(s) or s < 0.0:
        raise DomainError(f"radial coordinate must be finite and >= 0, got {s}")
    if s > profile.domain_radius + DOMAIN_GUARD * max(1.0, profile.domain_radius):
        raise DomainError(f"s = {s} outside profile domain (radius {profile.domain_radius})")


def frame(profile, s, phi):
    """(t, b, n) by the closed form of ``build_frame``."""
    _require_radius(profile, s)
    m = profile.radial_slope(s)
    c, sn = math.cos(phi), math.sin(phi)
    nu = math.sqrt(1.0 + m * m)
    t = (c / nu, sn / nu, m / nu)
    n = (m * c / nu, m * sn / nu, -1.0 / nu)
    return t, _cross(t, n), n


def wavevector(w, r):
    k = w.wavelength.k
    if w.kind is WaveKind.PLANE:
        return _mul(w.direction.as_tuple(), k)
    d = _sub(r, w.point.as_tuple())
    dist = _norm(d)
    if dist <= SOURCE_EXCLUSION_MM:
        raise SingularPoint(f"wave evaluated {dist} mm from its source/target point")
    u = (d[0] / dist, d[1] / dist, d[2] / dist)
    return _mul(u, k) if w.kind is WaveKind.SPHERICAL_DIVERGING else _mul(u, -k)


def _sphere_cap_root(cz, radius, rp):
    b = cz * (cz - radius)
    root = math.sqrt(max(cz * (cz * radius * radius - rp * rp * (cz - 2.0 * radius)), 0.0))
    if b >= 0.0:
        return (b + root) / (rp * rp + cz * cz)
    return cz * (cz - 2.0 * radius) / (b - root)


def _bracketed_root(gap, dgap, hi):
    lo, tau = 0.0, hi
    for _ in range(200):
        g = gap(tau)
        if g == 0.0:
            return tau
        if g > 0.0:
            lo = tau
        else:
            hi = tau
        d = dgap(tau)
        nxt = tau - g / d if d != 0.0 else None
        if nxt is None or not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
        if abs(nxt - tau) <= 4.0 * sys.float_info.epsilon * abs(nxt):
            return nxt
        tau = nxt
    return tau


def project(proj, profile, p):
    """Plane point p -> graph point, orthogonal or central."""
    if abs(p[2]) > 1e-9:
        raise DomainError(f"projection input must lie in the z = 0 plane, got z = {p[2]}")
    if proj.is_orthogonal:
        s = math.hypot(p[0], p[1])
        _require_radius(profile, s)
        return (p[0], p[1], profile.radial_height(s))
    cz = proj.center.z
    rp = math.hypot(p[0], p[1])
    h0 = profile.radial_height(0.0)
    if cz - h0 <= 0.0:
        raise NoIntersection(f"projection center z = {cz} is not above the surface vertex (h(0) = {h0})")
    if rp == 0.0:
        return (0.0, 0.0, h0)
    d_dom = profile.domain_radius

    def gap(tau):
        return (1.0 - tau) * cz - profile.radial_height(min(tau * rp, d_dom))

    def dgap(tau):
        return -cz - profile.radial_slope(min(tau * rp, d_dom)) * rp

    tau_hi = min(1.0, (d_dom / rp) * (1.0 + DOMAIN_GUARD))
    g_hi = gap(tau_hi)
    if g_hi > 0.0:
        raise NoIntersection(
            f"segment from center z = {cz} to ({p[0]}, {p[1]}) leaves the surface domain before meeting the graph")
    if g_hi == 0.0:
        tau = tau_hi
    else:
        if profile.kind == "sphere_cap":
            tau = min(_sphere_cap_root(cz, profile.radius, rp), tau_hi)
        else:
            tau = _bracketed_root(gap, dgap, tau_hi)
        dg = dgap(tau)
        if dg != 0.0:
            tau_n = tau - gap(tau) / dg
            if 0.0 <= tau_n <= tau_hi:
                tau = tau_n
    return (tau * p[0], tau * p[1], (1.0 - tau) * cz)


def inverse_project(proj, profile, q):
    s = math.hypot(q[0], q[1])
    if s > profile.domain_radius + DOMAIN_GUARD * max(1.0, profile.domain_radius):
        raise NotOnSurface(f"point radius {s} exceeds surface domain {profile.domain_radius}")
    if abs(q[2] - profile.radial_height(s)) > 1e-9:
        raise NotOnSurface(f"point z = {q[2]} is not on the graph (expected {profile.radial_height(s)})")
    if proj.is_orthogonal:
        return (q[0], q[1], 0.0)
    cz = proj.center.z
    denom = cz - q[2]
    if abs(denom) <= 1e-12 * max(1.0, abs(cz)):
        raise NoPreimage("ray from the projection center through the point is parallel to the plane")
    t = cz / denom
    if t <= 0.0:
        raise NoPreimage("projection center lies below the surface point; no forward preimage")
    return (t * q[0], t * q[1], 0.0)


def _context(i, s, phi, exc):
    return type(exc)(f"sample {i} (s={s}, phi={phi}): {exc}")


def record_rows(w1, w2, carrier, grid):
    """Per sample (s, phi, x, y, z, g1, g2, g3) of ``record``."""
    rows = []
    for s, phi in zip(*(a.tolist() for a in grid.footprint_arrays(carrier.domain_radius))):
        x, y = s * math.cos(phi), s * math.sin(phi)
        r = math.hypot(x, y)
        _require_radius(carrier, r)
        pos = (x, y, carrier.radial_height(r))
        kg = _sub(wavevector(w2, pos), wavevector(w1, pos))
        t, b, n = frame(carrier, s, phi)
        rows.append((s, phi, *pos, _dot(kg, t), _dot(kg, b), _dot(kg, n)))
    return rows


def field_rows(field):
    """The same per-sample tuples read from an array field."""
    return [(s, phi, *p, *g) for s, phi, p, g in
            zip(field.s.tolist(), field.phi.tolist(), field.pos.tolist(), field.g.tolist())]


def sample_records(field):
    """The field's samples as :class:`GratingSample` records, built one row at a time."""
    records = []
    for s, phi, x, y, z, g1, g2, g3 in field_rows(field):
        t, b, n = frame(field.carrier, s, phi)
        g = (g1, g2, g3)
        records.append(GratingSample(s, phi, Vec3(x, y, z), Vec3(*t), Vec3(*b), Vec3(*n), g, _norm(g)))
    return records


def rays_csv_text(trace):
    """The rays.csv text of ``trace``, formatted one row at a time with %.17g."""
    lines = ["s,phi,x,y,z,dx,dy,dz,status,weight"]
    for s, phi, pos, d, code, w in zip(trace.s.tolist(), trace.phi.tolist(), trace.pos.tolist(),
                                       trace.direction.tolist(), trace.status.tolist(), trace.eta.tolist()):
        status = STATUSES[code].value
        cells = ["%.17g" % v for v in (s, phi, *pos)]
        if status == "evanescent":
            cells += ["", "", "", status, "0"]
        else:
            cells += ["%.17g" % v for v in d] + [status, "%.17g" % w]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


# The row templates the CSV writers formatted every row through before the
# number kernel: CPython's '%.17g' and '%d'. "%.0s" consumes a value and
# prints nothing, which leaves the direction of evanescent rows empty and
# their weight 0.
RAY_ROWS = tuple(
    "%.17g,%.17g,%.17g,%.17g,%.17g,%.0s,%.0s,%.0s,evanescent,0%.0s\n" if status.value == "evanescent"
    else "%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g," + status.value + ",%.17g\n"
    for status in STATUSES
)
HITS_ROW = "%.17g,%.17g,%.17g,%d\n"


def rays_csv_template_text(trace):
    """The rays.csv text of ``trace`` through the per-status row templates."""
    return "s,phi,x,y,z,dx,dy,dz,status,weight\n" + "".join(
        RAY_ROWS[code] % (s, phi, *pos, *d, w) for s, phi, pos, d, code, w in
        zip(trace.s.tolist(), trace.phi.tolist(), trace.pos.tolist(), trace.direction.tolist(),
            trace.status.tolist(), trace.eta.tolist()))


def hits_csv_template_text(plane_hits):
    """The hits.csv text of ``plane_hits`` through the row template."""
    return "z0,x,y,ray_index\n" + "".join(
        HITS_ROW % (ph.z0, x, y, i) for ph in plane_hits for i, (x, y) in zip(ph.index.tolist(), ph.xy.tolist()))


def hits_csv_text(plane_hits):
    """The hits.csv text of ``plane_hits``, formatted one row at a time."""
    lines = ["z0,x,y,ray_index"]
    for ph in plane_hits:
        for i, (x, y) in zip(ph.index.tolist(), ph.xy.tolist()):
            lines.append("%.17g,%.17g,%.17g,%d" % (ph.z0, x, y, i))
    return "\n".join(lines) + "\n"


def induce_forward_rows(rows, target, proj):
    out = []
    for i, (s, phi, x, y, z, *g) in enumerate(rows):
        try:
            q = project(proj, target, (x, y, z))
        except (DomainError, NoIntersection) as exc:
            raise _context(i, s, phi, exc) from exc
        s_new = math.hypot(q[0], q[1])
        frame(target, s_new, phi)  # the frame at q must exist
        out.append((s_new, phi, *q, *g))
    return out


def induce_inverse_rows(rows, carrier, proj):
    out = []
    for i, (s, phi, x, y, z, *g) in enumerate(rows):
        try:
            p = inverse_project(proj, carrier, (x, y, z))
        except (NotOnSurface, NoPreimage) as exc:
            raise _context(i, s, phi, exc) from exc
        out.append((math.hypot(p[0], p[1]), phi, p[0], p[1], 0.0, *g))
    return out


def trace_rows(rows, carrier, probe, mode):
    """Per sample (status, kd x 3 or None, direction x 3 or None, mismatch) of ``trace_field``."""
    out = []
    for s, phi, x, y, z, g1, g2, g3 in rows:
        kp = wavevector(probe, (x, y, z))
        t, b, n = frame(carrier, s, phi)
        if math.sqrt(g1 * g1 + g2 * g2 + g3 * g3) == 0.0:
            status, kd, mismatch = "pass_through", kp, 0.0
        else:
            kg = _add(_add(_mul(t, g1), _mul(b, g2)), _mul(n, g3))
            w = _add(kg, kp)
            if mode == "basic":
                status, kd, mismatch = "propagating", w, _norm(w) - _norm(kp)
            else:
                wt, wb, wn = _dot(w, t), _dot(w, b), _dot(w, n)
                kp_len = _norm(kp)
                mismatch = _norm(w) - kp_len
                radicand = kp_len * kp_len - (wt * wt + wb * wb)
                if radicand < 0.0:
                    status, kd = "evanescent", None
                else:
                    c = math.sqrt(radicand)
                    if wn < 0.0:
                        c = -c
                    status, kd = "propagating", _add(_add(_mul(t, wt), _mul(b, wb)), _mul(n, c))
        length = None if kd is None else _norm(kd)
        direction = None if kd is None else (kd[0] / length, kd[1] / length, kd[2] / length)
        out.append((status, kd, direction, mismatch))
    return out


def resample_rows(rows, carrier, n_s, n_phi, has_vertex, targets):
    """Per target footprint (s, phi) the row of ``resample_field``: bilinear in
    (s, phi) between rings, the vertex's world vector re-expressed below the
    innermost ring."""
    offset = 1 if has_vertex else 0
    rings = [rows[offset + j * n_phi: offset + (j + 1) * n_phi] for j in range(n_s)]
    ring_s = [ring[0][0] for ring in rings]
    dphi = TWO_PI / n_phi
    if has_vertex:
        s0, phi0, *_, g1, g2, g3 = rows[0]
        t, b, n = frame(carrier, s0, phi0)
        world = _add(_add(_mul(t, g1), _mul(b, g2)), _mul(n, g3))

    def lerp(a, b, w):
        return tuple(x * (1.0 - w) + y * w for x, y in zip(a, b))

    def ring_coords(j, phi):
        if j < 0:
            t, b, n = frame(carrier, 0.0, phi)
            return (_dot(world, t), _dot(world, b), _dot(world, n))
        u = (phi % TWO_PI) / dphi
        i0 = int(math.floor(u)) % n_phi
        return lerp(rings[j][i0][5:], rings[j][(i0 + 1) % n_phi][5:], u - math.floor(u))

    out = []
    for s, phi in targets:
        if s <= ring_s[0]:
            lo, hi, w = -1, 0, s / ring_s[0]
        else:
            lo = min(bisect.bisect_right(ring_s, s), n_s - 1) - 1
            hi = lo + 1
            w = min(1.0, (s - ring_s[lo]) / (ring_s[hi] - ring_s[lo]))
        x, y = s * math.cos(phi), s * math.sin(phi)
        out.append((s, phi, x, y, carrier.radial_height(math.hypot(x, y)),
                    *lerp(ring_coords(lo, phi), ring_coords(hi, phi), w)))
    return out


def isosurface_report(w1, w2, spec, points):
    """The four ``IsosurfaceReport`` numbers of ``check_isosurface``, computed point by point."""
    r1, r2, total = spec.r1.as_tuple(), spec.r2.as_tuple(), spec.distance_sum
    phases, max_dev, max_res = [], 0.0, 0.0
    for i, p in enumerate(points):
        r = p.as_tuple()
        d1, d2 = _norm(_sub(r, r1)), _norm(_sub(r, r2))
        dev = abs(d1 + d2 - total)
        if dev > 1e-9 * total:
            raise PointNotOnEllipsoid(f"point {i} at {r}: distance sum {d1 + d2} vs required {total}")
        max_dev = max(max_dev, dev)
        phases.append(w1.wavelength.k * ((d1 + d2) * UM_PER_MM))
        kg = _sub(wavevector(w2, r), wavevector(w1, r))
        u_sum = _add(tuple(c / d1 for c in _sub(r, r1)), tuple(c / d2 for c in _sub(r, r2)))
        denom = _norm(kg) * _norm(u_sum)
        if denom > 1e-300:
            max_res = max(max_res, _norm(_cross(kg, u_sum)) / denom)
    spread = (max(phases) - min(phases)) if phases else 0.0
    return len(phases), max_dev, spread, max_res


def bend_focal_shift_limits(doc):
    """The R -> inf limits of R*(z*_flat - z*_bent) for the x (tangential)
    and y (sagittal) spot minima, when the planar element of the scene config
    ``doc`` is bent onto a sphere cap of radius R (mm^2).

    To first order in the cap curvature 1/R and with a small aperture,
    bending adds the term (cos t_d - cos t_i)/R of a refracting surface with
    n = n' to Coddington's equations (Welford, *Aberrations of Optical
    Systems*, 1986). The flat element then focuses the probe at L from the
    vertex, and the shift of each focus, projected on z, is

        tangential: L^2 (cos t_d - cos t_i) / cos t_d
        sagittal:   L^2 cos t_d (cos t_d - cos t_i)

    The vertex is the origin with the normal along z. The probe is the
    recording's w1, so the flat element sends it to w2's target, which sets L
    and t_d; t_i is the probe's angle at the vertex. Both lie in the xz plane.
    """
    rec = doc["recording"]
    probe, target = doc["probe"], rec["w2"]["target_mm"]
    assert probe == rec["w1"] and rec["w2"]["kind"] == "spherical_converging", "the probe must replay w1"
    if probe["kind"] == "plane":
        d = probe["dir"]
    elif probe["kind"] == "spherical_diverging":
        d = _mul(probe["origin_mm"], -1.0)
    else:
        raise ValueError(f"no vertex direction for a {probe['kind']} probe")
    assert d[1] == 0.0 and target[1] == 0.0, "the plane of incidence must be xz"
    cos_i = abs(d[2]) / _norm(d)
    length = _norm(target)
    cos_d = target[2] / length
    return length ** 2 * (cos_d - cos_i) / cos_d, length ** 2 * cos_d * (cos_d - cos_i)
