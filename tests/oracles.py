"""Per-sample reference loops for the array field core.

Each function below is the scalar form the package computed one sample at
a time before fields became arrays: plain floats and ``math``, no numpy and
no package kernel, so a test can compare the array code with an
independent evaluation of the same formulas. Errors carry the messages and
the ``sample {i} (s=..., phi=...)`` context of the scalar code.
"""

import bisect
import math
import sys

from hoedeform.errors import DomainError, NoIntersection, NoPreimage, NotOnSurface, SingularPoint
from hoedeform.surfaces import DOMAIN_GUARD
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
    for p in grid.footprints(carrier.domain_radius):
        x, y = p.s * math.cos(p.phi), p.s * math.sin(p.phi)
        r = math.hypot(x, y)
        _require_radius(carrier, r)
        pos = (x, y, carrier.radial_height(r))
        kg = _sub(wavevector(w2, pos), wavevector(w1, pos))
        t, b, n = frame(carrier, p.s, p.phi)
        rows.append((p.s, p.phi, *pos, _dot(kg, t), _dot(kg, b), _dot(kg, n)))
    return rows


def field_rows(field):
    """The same per-sample tuples read from an array field."""
    return [(s, phi, *p, *g) for s, phi, p, g in
            zip(field.s.tolist(), field.phi.tolist(), field.pos.tolist(), field.g.tolist())]


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
