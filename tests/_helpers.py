"""Shared construction helpers for the test suite."""

import math

import numpy as np

from dynamohull import (
    DEFAULT_TOLERANCES,
    ConeKind,
    Decomposition,
    DecompositionError,
    HullCheckReport,
    HullParams,
    NotInHullError,
    SampleConfig,
    Triple,
    Vec3,
    VerificationReport,
    decompose,
    hull_excess_bound,
    in_hull,
    sample_first_laminate,
    sample_hull,
    separation_witness,
    unit_perpendicular,
    unit_perpendicular_to_all,
    verify_decomposition,
)
from dynamohull.core import _cross, _dot, _frame
from dynamohull.oracle import _COLUMNS, TWO_PI, _sphere
from dynamohull.planewave import _band_fractions

ALPHA_GRID = np.linspace(0.0, 1.0, 10_000)
_SQRT_WEIGHT = 2.0 * np.sqrt(ALPHA_GRID * (1.0 - ALPHA_GRID))


def g2_grid_max(z: Triple, p: HullParams) -> float:
    """Independent evaluation of the convex excess function: brute-force
    maximization over a uniform grid of the inner parameter."""
    a = z.B.norm2() - p.r * p.r
    b = z.u.norm2() - p.s * p.s
    c = (z.B.cross(z.u) - z.E).norm()
    return float(np.max(ALPHA_GRID * a + (1.0 - ALPHA_GRID) * b + _SQRT_WEIGHT * c))


def g2_refined_max(z: Triple, p: HullParams) -> float:
    """Golden-section refinement of the inner maximization, resolution-free
    oracle for the closed form away from grid limitations."""
    a = z.B.norm2() - p.r * p.r
    b = z.u.norm2() - p.s * p.s
    c = (z.B.cross(z.u) - z.E).norm()

    def h(alpha):
        return alpha * a + (1.0 - alpha) * b + 2.0 * math.sqrt(alpha * (1.0 - alpha)) * c

    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    lo, hi = 0.0, 1.0
    x1 = hi - inv_phi * (hi - lo)
    x2 = lo + inv_phi * (hi - lo)
    f1, f2 = h(x1), h(x2)
    while hi - lo > 1e-14:
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + inv_phi * (hi - lo)
            f2 = h(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - inv_phi * (hi - lo)
            f1 = h(x1)
    return max(h(lo), h(hi), h(0.0), h(1.0))


def vec(rng: np.random.Generator, scale: float = 1.0) -> Vec3:
    x, y, z = rng.uniform(-scale, scale, 3)
    return Vec3(x, y, z)


def unit(rng: np.random.Generator) -> Vec3:
    while True:
        v = vec(rng)
        n = v.norm()
        if n > 1e-3:
            return v / n


def cone_direction(rng: np.random.Generator, kind: ConeKind = ConeKind.NONSTATIONARY,
                   scale: float = 1.0) -> Triple:
    """Random direction with the cone orthogonality built in exactly."""
    B = vec(rng, scale)
    u = vec(rng, scale)
    if kind.restricts_u:
        e = unit_perpendicular_to_all((B, u)) * rng.uniform(0.1, scale)
        return Triple(B, u, e)
    E = vec(rng, scale)
    nb = B.norm()
    if nb > 0.0:
        bhat = B / nb
        E = E - bhat * E.dot(bhat)
    return Triple(B, u, E)


def scaled_point(rng: np.random.Generator, kind: ConeKind, fraction: float,
                 r: float, s: float) -> Triple:
    """A point built in normalised coordinates (b, v, e) = (B/r, u/s, E/(rs))
    and scaled to the radii (r, s).

    |b|, |v| <= 0.999 (uniform in volume), b . e = 0 (and v . e = 0 for the
    restricted cone), and the excess |e - b x v| is the given fraction of the
    sharp bound sqrt((1 - |b|^2)(1 - |v|^2)): fractions <= 1 lie in the
    relaxed set, fractions > 1 outside it.
    """
    b = np.array(list(unit(rng))) * 0.999 * rng.random() ** (1.0 / 3.0)
    v = np.array(list(unit(rng))) * 0.999 * rng.random() ** (1.0 / 3.0)
    if kind.restricts_u:
        d = np.cross(b, v)
        d *= (1.0 if rng.random() < 0.5 else -1.0) / np.linalg.norm(d)
    else:
        w = np.array(list(unit(rng)))
        bh = b / np.linalg.norm(b)
        d = w - bh * (w @ bh)
        d /= np.linalg.norm(d)
    bound = math.sqrt((1.0 - b @ b) * (1.0 - v @ v))
    e = np.cross(b, v) + d * (fraction * bound)
    return Triple(Vec3(*(b * r)), Vec3(*(v * s)), Vec3(*(e * (r * s))))


def rotation_matrix(rng: np.random.Generator) -> np.ndarray:
    """Uniform random rotation from a normalized quaternion."""
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def rotate(R: np.ndarray, v: Vec3) -> Vec3:
    arr = R @ np.array([v.x, v.y, v.z])
    return Vec3(arr[0], arr[1], arr[2])


def rotate_triple(R: np.ndarray, z: Triple) -> Triple:
    return Triple(rotate(R, z.B), rotate(R, z.u), rotate(R, z.E))


ALL_KINDS = tuple(ConeKind)
SHARED_CONE_KINDS = (ConeKind.NONSTATIONARY, ConeKind.NONSTATIONARY_INCOMPRESSIBLE,
                     ConeKind.STATIONARY)


def reference_two_sided_hull_check(cfg, tol=None, inner_tol=None):
    """two_sided_hull_check one point at a time through the public per-point
    API: the reference the block campaign engine must reproduce exactly."""
    tol = tol or DEFAULT_TOLERANCES
    inner_tol = inner_tol or tol
    p = cfg.params
    kind = cfg.kind
    rss = p.r * p.s * p.s
    report = HullCheckReport(seed=cfg.seed, kind=kind.label, r=p.r, s=p.s)

    for z in sample_first_laminate(cfg):
        report.laminate_checked += 1
        if not in_hull(z, p, kind, inner_tol):
            report.record_failure("laminate", z, "combination fails closed-form membership")
        if kind.restricts_u:
            den = rss + z.u.norm() * z.E.norm()
            res = abs(z.u.dot(z.E)) / den if den else 0.0
            if report.max_u_orthogonality is None or res > report.max_u_orthogonality:
                report.max_u_orthogonality = res
            if res > tol.eps_mem:
                report.record_failure("laminate", z, f"u.E residual {res}")

    hull_cfg = SampleConfig(seed=cfg.seed, count=cfg.count // 10, params=p, kind=kind)
    reference_check_decompositions(report, sample_hull(hull_cfg), p, kind, tol)
    return report


def reference_check_decompositions(report, points, p, kind, tol):
    """The surjective half of reference_two_sided_hull_check on the given
    points: decompose and verify each one into the report."""
    rss = p.r * p.s * p.s
    for z in points:
        report.decompose_checked += 1
        try:
            d = decompose(z, p, kind, tol)
        except DecompositionError as exc:
            report.record_failure("decompose", z, f"decomposition raised: {exc}")
            continue
        ver = verify_decomposition(d, z, p, kind, tol)
        report.max_verify_residual = max(report.max_verify_residual, ver.max_residual)
        by_check = report.max_residual_by_check
        for name, val in ver.residuals.items():
            by_check[name] = max(by_check.get(name, 0.0), val)
        if not ver.passed:
            report.record_failure("decompose", z,
                                  "verification failed: " + ", ".join(ver.failures))
        if kind.restricts_u:
            dz = d.z1 - d.z2
            mix = dz.B.cross(dz.u)
            res = abs(z.u.dot(mix)) / (rss + z.u.norm() * dz.B.norm() * dz.u.norm())
            if report.max_mixing_orthogonality is None or res > report.max_mixing_orthogonality:
                report.max_mixing_orthogonality = res
            if res > tol.eps_mem:
                report.record_failure("decompose", z, f"u.(Bbar x ubar) residual {res}")


def _libm(fn, *cols: np.ndarray) -> np.ndarray:
    """fn of the math module applied row by row to numpy columns."""
    return np.fromiter(map(fn, *(c.tolist() for c in cols)), dtype=np.float64,
                       count=len(cols[0]))


def reference_pair_block(w: np.ndarray, p: HullParams, restricts_u: bool):
    """oracle._pair_block with the circle angle from math's hypot, atan2 and
    acos row by row: the reference the closed-form circle point must
    reproduce.  One pair per row of draws (columns 0-6 of w).

    The pair is built on the unit spheres, then scaled once (B by r, u by s,
    E by rs).  Draws: B1 (2), u1 (2), B2 (2), then the circle angle (the
    stationary incompressible branch draws a root-choice coin instead, or an
    angle when the whole circle satisfies the second plane).  The circle is
    u2 . nh = u1 . nh on the sphere, in the sampler's frame of B1 x B2.
    Returns the N x 18 rows (z1 then z2) and the cone residual of each pair.
    """
    with np.errstate(all="ignore"):
        b1 = _sphere(w[:, 0], w[:, 1], 1.0)
        u1 = _sphere(w[:, 2], w[:, 3], 1.0)
        b2 = _sphere(w[:, 4], w[:, 5], 1.0)
        e1 = _cross(b1, u1)
        nh, p1, p2 = _frame(_cross(b1, b2), _COLUMNS)
        h = _dot(u1, nh)
        rho_c = np.sqrt(_COLUMNS.positive(1.0 - h * h))

        if restricts_u:
            # Second plane: u2 . (u1 x B2 + E1) = u1 . E1 on the circle.
            ub = _cross(u1, b2)
            n2 = tuple(ub[i] + e1[i] for i in range(3))
            c_target = _dot(u1, e1) - h * _dot(nh, n2)
            a_cos = rho_c * _dot(p1, n2)
            a_sin = rho_c * _dot(p2, n2)
            amp = _libm(math.hypot, a_cos, a_sin)
            free = amp <= 1e-12 * (1.0 + np.sqrt(_dot(n2, n2)))
            ratio = c_target / amp
            ratio = np.where(ratio > -1.0, ratio, -1.0)
            ratio = np.where(ratio < 1.0, ratio, 1.0)
            base = _libm(math.atan2, a_sin, a_cos)
            delta = _libm(math.acos, ratio)
            phi = np.where(free, TWO_PI * w[:, 6],
                           np.where(w[:, 6] < 0.5, base + delta, base - delta))
        else:
            phi = TWO_PI * w[:, 6]

        ca = rho_c * np.cos(phi)
        sa = rho_c * np.sin(phi)
        u2 = tuple(nh[i] * h + ca * p1[i] + sa * p2[i] for i in range(3))
        e2 = _cross(b2, u2)

        db = tuple(b1[i] - b2[i] for i in range(3))
        de = tuple(e1[i] - e2[i] for i in range(3))
        de_len = np.sqrt(_dot(de, de))
        res = np.abs(_dot(db, de)) / (1.0 + np.sqrt(_dot(db, db)) * de_len)
        if restricts_u:
            du = tuple(u1[i] - u2[i] for i in range(3))
            res2 = np.abs(_dot(du, de)) / (1.0 + np.sqrt(_dot(du, du)) * de_len)
            res = np.where(res2 > res, res2, res)
    r, s = p.r, p.s
    rs = r * s
    rows = np.column_stack([x * r for x in b1] + [x * s for x in u1] + [x * rs for x in e1]
                           + [x * r for x in b2] + [x * s for x in u2] + [x * rs for x in e2])
    return rows, res


def _reference_spatial_residuals(s, h, direction, kind, dst):
    inv2h = 1.0 / (2.0 * h)
    dsx = (np.roll(s, -1, axis=0) - np.roll(s, 1, axis=0)) * inv2h
    dsy = (np.roll(s, -1, axis=1) - np.roll(s, 1, axis=1)) * inv2h
    dsz = (np.roll(s, -1, axis=2) - np.roll(s, 1, axis=2)) * inv2h
    bb, uu, ee = direction.B, direction.u, direction.E

    out = {}
    div_b = dsx * bb.x + dsy * bb.y + dsz * bb.z
    out["div_B"] = float(np.abs(div_b).max())

    curl_x = dsy * ee.z - dsz * ee.y
    curl_y = dsz * ee.x - dsx * ee.z
    curl_z = dsx * ee.y - dsy * ee.x
    if dst is not None:
        curl_x = curl_x + dst * bb.x
        curl_y = curl_y + dst * bb.y
        curl_z = curl_z + dst * bb.z
    out["faraday"] = float(max(np.abs(curl_x).max(), np.abs(curl_y).max(),
                               np.abs(curl_z).max()))

    if kind.incompressible:
        div_u = dsx * uu.x + dsy * uu.y + dsz * uu.z
        out["div_u"] = float(np.abs(div_u).max())
    return out


def reference_grid_residual(direction, xi, g, kind=ConeKind.NONSTATIONARY):
    """grid_residual's residuals the plain way, with np.roll centred
    differences on whole sampled fields over every grid point: the reference
    the stencil on the reached phase residues must reproduce to rounding."""
    n, periods = g.n, g.periods
    sines = np.tile(np.sin(np.arange(n) * (2.0 * math.pi / n)), 2)
    i = np.arange(n, dtype=np.int64) * periods
    kx, ky, kz = (round(c) for c in xi.xi_x)
    phase = (i[:, None, None] * kx + i[None, :, None] * ky + i[None, None, :] * kz) % n

    if kind.stationary or xi.xi_t == 0.0:
        return _reference_spatial_residuals(sines[phase], g.h, direction, kind, dst=None)

    step_t = periods * round(xi.xi_t)
    inv2h = 1.0 / (2.0 * g.h)
    worst = {}
    slices = [sines[phase + t_idx * step_t % n] for t_idx in (n - 1, 0, 1)]
    for t_idx in range(n):
        s_prev, s_cur, s_next = slices
        dst = (s_next - s_prev) * inv2h
        res = _reference_spatial_residuals(s_cur, g.h, direction, kind, dst=dst)
        for key, val in res.items():
            worst[key] = max(worst.get(key, 0.0), val)
        slices = [s_cur, s_next, sines[phase + (t_idx + 2) * step_t % n]]
    return worst


def reference_staircase_average(d, xi, n_osc, g, tol=None):
    """staircase_average written in Triple arithmetic: the Gauss and Faraday
    conditions on z1 - z2 through Vec3 operations, the average and the
    mixture d.combine() as Triples, and the error as the norm of their
    difference.  Returns (average, fraction, error), the reference the
    component-triple version must reproduce."""
    tol = tol or DEFAULT_TOLERANCES
    dz = d.z1 - d.z2
    gauss = abs(dz.B.dot(xi.xi_x))
    faraday = (dz.B * xi.xi_t + xi.xi_x.cross(dz.E)).norm()
    if max(gauss, faraday) > tol.eps_residual * (1.0 + xi.norm() * dz.norm()):
        raise ValueError("xi does not admit plane waves along z1 - z2")
    fracs = _band_fractions(n_osc, g.n, g.periods)
    fraction = float(np.searchsorted(fracs, d.lam, side="left")) / fracs.size
    average = d.z1 * fraction + d.z2 * (1.0 - fraction)
    return average, fraction, (average - d.combine()).norm()


# The per-point membership kernel written out on its own, not shared with the
# block mask: an independent reference for both.

def reference_separating_function(z: Triple, p: HullParams, kind: ConeKind,
                                  eps: float) -> str | None:
    """The membership kernel: which of "g1", "g3", "g2" separates z, or None.

    Every comparison is made on the normalised triple (b, v, e) =
    (B/r, u/s, E/(rs)), where the relaxed set is the same for all radii:
    |b . e| <= eps (1 + |b||e|) and likewise v . e; |b|, |v| <= 1 + eps;
    |e - b x v|^2 <= (1 - |b|^2)(1 - |v|^2) + eps.  The radii are folded into
    unrolled arithmetic: this kernel sits inside the million-point campaigns.
    """
    r, s = p.r, p.s
    rr, ss = r * r, s * s
    B, u, E = z.B, z.u, z.E
    bx, by, bz = B.x, B.y, B.z
    ux, uy, uz = u.x, u.y, u.z
    ex, ey, ez = E.x, E.y, E.z
    nb2 = bx * bx + by * by + bz * bz
    nu2 = ux * ux + uy * uy + uz * uz
    nb = math.sqrt(nb2)
    nu = math.sqrt(nu2)
    ne = math.sqrt(ex * ex + ey * ey + ez * ez)
    if abs(bx * ex + by * ey + bz * ez) > eps * (rr * s + nb * ne):
        return "g1"
    if kind.restricts_u and abs(ux * ex + uy * ey + uz * ez) > eps * (r * ss + nu * ne):
        return "g3"
    if nb > r * (1.0 + eps) or nu > s * (1.0 + eps):
        return "g2"
    wx = ex - (by * uz - bz * uy)
    wy = ey - (bz * ux - bx * uz)
    wz = ez - (bx * uy - by * ux)
    cap = max(0.0, rr - nb2) * max(0.0, ss - nu2)
    return "g2" if wx * wx + wy * wy + wz * wz > cap + eps * (rr * ss) else None


# The scalar decomposition and verification in Vec3 arithmetic, one
# temporary per operation: the reference the unrolled float path in
# dynamohull.laminate must reproduce bit for bit, errors included.

def _reference_require_in_hull(z, p, kind, tol):
    w = separation_witness(z, p, kind, tol)
    if w.separates:
        raise NotInHullError(f"point outside the relaxed set (witness {w.function}"
                             f" = {w.value})", w)


def _reference_frame(rr, ss, excess):
    ebar = excess / math.sqrt(rr * ss)
    e_len = ebar.norm()
    st = min(e_len, 1.0)
    return rr, ebar, ebar / e_len, math.sqrt(max(0.0, 1.0 - st * st)), st, math.sqrt(rr / ss)


def _reference_gap(z, frame):
    """The axes e1, e2, the rotated axes p_vec, q_vec and the amplitudes (A, C)
    of the angle equation A cos(alpha) + C sin(alpha)."""
    _, _, nhat, ct, st, kappa = frame
    nb = z.B.norm()
    e1 = z.B / nb if nb else unit_perpendicular(nhat)
    w = e1.cross(nhat)
    wn = w.norm()
    if wn < 1e-6:
        raise DecompositionError(
            "working plane degenerate: B is parallel to the excess field")
    e2 = w / wn
    p_vec = e1 * ct + nhat.cross(e1) * st
    q_vec = e2 * ct + nhat.cross(e2) * st
    amp_cos = nb - kappa * z.u.dot(p_vec)
    amp_sin = -kappa * z.u.dot(q_vec)
    return e1, e2, p_vec, q_vec, amp_cos, amp_sin


def reference_root_direction(a, c):
    """(cos alpha, sin alpha) of the root of a cos(alpha) + c sin(alpha) in
    [pi/2, 3pi/2]: (-|c|, sign(c) a) / sqrt(a^2 + c^2), with (0, 1) at c = 0
    and (-1, 0) at a = c = 0."""
    rho = math.sqrt(a * a + c * c)
    if rho == 0.0:
        return -1.0, 0.0
    if c == 0.0:
        return -0.0, abs(a) / rho
    return -abs(c) / rho, (a if c > 0.0 else -a) / rho


def _reference_solve(z, frame):
    """The perturbations (bbar, ubar) at the root of the angle equation."""
    rr, _, _, _, _, kappa = frame
    nb = z.B.norm()
    e1, e2, p_vec, q_vec, amp_cos, amp_sin = _reference_gap(z, frame)
    ca, sa = reference_root_direction(amp_cos, amp_sin)
    bbar_len = 2.0 * math.sqrt(rr + nb * nb * (ca * ca))
    ubar_len = bbar_len / kappa
    return (e1 * ca + e2 * sa) * bbar_len, (p_vec * ca + q_vec * sa) * ubar_len


def _reference_endpoints(B, u, bbar, ubar, lam):
    mu = 1.0 - lam
    B1 = B + bbar * mu
    u1 = u + ubar * mu
    B2 = B - bbar * lam
    u2 = u - ubar * lam
    return Decomposition(lam, Triple(B1, u1, B1.cross(u1)), Triple(B2, u2, B2.cross(u2)))


def reference_decompose(z, p, kind=ConeKind.NONSTATIONARY, tol=None):
    """decompose in Vec3 arithmetic."""
    tol = tol or DEFAULT_TOLERANCES
    _reference_require_in_hull(z, p, kind, tol)
    rr = p.r * p.r - z.B.norm2()
    ss = p.s * p.s - z.u.norm2()
    excess = z.E - z.B.cross(z.u)
    c = excess.norm()
    if c <= tol.eps_root * p.r * p.s:
        e = unit_perpendicular_to_all((z.B, z.u))
        return _reference_endpoints(z.B, z.u, e * (2.0 * math.sqrt(max(0.0, rr))),
                                    e * (2.0 * math.sqrt(max(0.0, ss))), 0.5)
    if rr <= tol.eps_mem * p.r * p.r or ss <= tol.eps_mem * p.s * p.s:
        raise NotInHullError(
            f"amplitude on the boundary (r^2-|B|^2={rr}, s^2-|u|^2={ss}) "
            f"with nonzero excess |E-Bxu|={c}")
    bbar, ubar = _reference_solve(z, _reference_frame(rr, ss, excess))
    lam = 0.5 + z.B.dot(bbar) / bbar.norm2()
    return _reference_endpoints(z.B, z.u, bbar, ubar, min(1.0, max(0.0, lam)))


def _reference_cone_residual(a, b, unit):
    den = unit + a.norm() * b.norm()
    return abs(a.dot(b)) / den if den else 0.0


def reference_verify_decomposition(d, target, p, kind=ConeKind.NONSTATIONARY, tol=None):
    """verify_decomposition in Vec3 arithmetic (for finite residuals)."""
    tol = tol or DEFAULT_TOLERANCES
    r, s = p.r, p.s
    rs = r * s
    res = {}
    for name, zi in (("z1", d.z1), ("z2", d.z2)):
        res[f"{name}_B_amplitude"] = abs(zi.B.norm() - r) / r
        res[f"{name}_u_amplitude"] = abs(zi.u.norm() - s) / s
        res[f"{name}_ohm"] = (zi.E - zi.B.cross(zi.u)).norm() / rs
    dz = d.z1 - d.z2
    res["cone_BE"] = _reference_cone_residual(dz.B, dz.E, rs * r)
    if kind.restricts_u:
        res["cone_uE"] = _reference_cone_residual(dz.u, dz.E, rs * s)
    res["lambda_range"] = max(0.0, -d.lam, d.lam - 1.0)
    res["reconstruction"] = (d.combine() - target).norm(r, s) / (1.0 + target.norm(r, s))
    d_bound = hull_excess_bound(target.B, target.u, p)
    prod = d.lam * (1.0 - d.lam) * dz.B.norm() * dz.u.norm()
    res["weight_amplitude_identity"] = abs(prod - d_bound) / (rs + d_bound)
    failures = tuple(name for name, v in res.items() if v > tol.eps_mem)
    return VerificationReport(passed=not failures, max_residual=max(res.values()),
                              residuals=res, failures=failures)


def special_points(p: HullParams) -> dict:
    """One triple per rare branch of decompose, at radii p."""
    r, s = p.r, p.s
    B = Vec3(0.3 * r, 0.1 * r, 0.0)
    u = Vec3(0.0, 0.2 * s, 0.4 * s)
    bound = math.sqrt((r * r - B.norm2()) * (s * s - u.norm2()))
    excess = B.cross(Vec3(0.0, 0.0, 1.0)).normalized() * (0.5 * bound)
    edge = Vec3(r, 0.0, 0.0)
    return {
        "outside": Triple(B, u, B.cross(u) + excess * 3.0),
        "exact Ohm": Triple(B, u, B.cross(u)),
        "B = 0": Triple(Vec3(0.0, 0.0, 0.0), u, Vec3(0.5 * r * s, 0.0, 0.0)),
        "u = 0": Triple(B, Vec3(0.0, 0.0, 0.0), excess),
        "amplitude boundary": Triple(edge, u, edge.cross(u) + Vec3(0.0, 2e-6, -1e-6) * (r * s)),
        # Tiny B parallel to the excess, admitted by the floor of the g1 test.
        "degenerate plane": Triple(Vec3(1e-5 * r, 0.0, 0.0), Vec3(0.0, 0.5 * s, 0.0),
                                   Vec3(1e-5 * r * s, 0.0, 5e-6 * r * s)),
        # Exact Ohm with no plane through B and u, with B = u = 0, and at the
        # amplitude corner |B| = r, |u| = s, where both gaps vanish.
        "B parallel to u": Triple(B, B * (2.0 * s / r), B.cross(B * (2.0 * s / r))),
        "B = u = 0": Triple(Vec3(0.0, 0.0, 0.0), Vec3(0.0, 0.0, 0.0), Vec3(0.0, 0.0, 0.0)),
        "amplitude corner": Triple(edge, Vec3(0.0, s, 0.0), edge.cross(Vec3(0.0, s, 0.0))),
    }


# The branch decompose takes on each special point, where it differs from the name.
SPECIAL_BRANCH = {"u = 0": "interior", "B parallel to u": "exact Ohm", "B = u = 0": "exact Ohm",
                  "amplitude corner": "exact Ohm"}
RAISING_BRANCHES = ("outside", "amplitude boundary", "degenerate plane")
