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
    NotInConeError,
    NotInHullError,
    SampleConfig,
    Triple,
    Vec3,
    VerificationReport,
    decompose,
    in_hull,
    sample_first_laminate,
    sample_hull,
    separation_witness,
    unit_perpendicular_to_all,
    verify_decomposition,
)
from dynamohull.core import _cross, _dot
from dynamohull.oracle import TWO_PI, _sphere
from dynamohull.planewave import RESIDUAL_SLACK, _band_fractions

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


def excess_bound(B: Vec3, u: Vec3, p: HullParams) -> float:
    """sqrt((r^2 - |B|^2)(s^2 - |u|^2)), each factor clipped at 0: the sharp bound
    on |E - B x u|, rounded as the verification's weight-amplitude check rounds it."""
    return math.sqrt(max(0.0, p.r * p.r - B.norm2()) * max(0.0, p.s * p.s - u.norm2()))


def normalized(v: Vec3) -> Vec3:
    """v / |v| of a nonzero v."""
    return v / v.norm()


def perpendicular_to(v: Vec3) -> Vec3:
    """A unit vector perpendicular to v: p1 of v's frame (the y axis if v = 0),
    unit_perpendicular_to_all with a zero second vector."""
    return unit_perpendicular_to_all((v, Vec3(0.0, 0.0, 0.0)))


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


def reference_two_sided_hull_check(cfg, tol=None):
    """two_sided_hull_check one point at a time through the public per-point
    API: the reference the block campaign engine must reproduce exactly."""
    tol = tol or DEFAULT_TOLERANCES
    p = cfg.params
    kind = cfg.kind
    report = HullCheckReport(seed=cfg.seed, kind=kind.label, r=p.r, s=p.s)

    for z in sample_first_laminate(cfg):
        report.laminate_checked += 1
        if not in_hull(z, p, kind, tol):
            report.record_failure("laminate", z, "combination fails closed-form membership")
        if kind.restricts_u:
            den = p.r * p.s * p.s + z.u.norm() * z.E.norm()
            res = abs(z.u.dot(z.E)) / den if den else 0.0
            if report.max_u_orthogonality is None or res > report.max_u_orthogonality:
                report.max_u_orthogonality = res

    hull_cfg = SampleConfig(seed=cfg.seed, count=cfg.count // 10, params=p, kind=kind)
    reference_check_decompositions(report, sample_hull(hull_cfg), p, kind, tol)
    return report


def reference_check_decompositions(report, points, p, kind, tol):
    """The surjective half of reference_two_sided_hull_check on the given
    points: decompose and verify each one into the report."""
    for z in points:
        report.decompose_checked += 1
        try:
            d = decompose(z, p, kind, tol)
        except DecompositionError as exc:
            report.record_failure("decompose", z, f"decomposition raised: {exc}")
            continue
        ver = verify_decomposition(d, z, p, kind, tol)
        by_check = report.max_residual_by_check
        for name, val in ver.residuals.items():
            by_check[name] = max(by_check.get(name, 0.0), val)
        if not ver.passed:
            report.record_failure("decompose", z,
                                  "verification failed: " + ", ".join(ver.failures))


def _libm(fn, *cols: np.ndarray) -> np.ndarray:
    """fn of the math module applied row by row to numpy columns."""
    return np.fromiter(map(fn, *(c.tolist() for c in cols)), dtype=np.float64,
                       count=len(cols[0]))


def reference_pair_block(w: np.ndarray, p: HullParams, restricts_u: bool):
    """oracle._pair_block with the restricted root's angle from math's atan2 row
    by row: the reference the closed-form mirror must reproduce.  One pair per
    row of draws (columns 0-6 of w).

    The pair is built on the unit spheres, then scaled once (B by r, u by s,
    E by rs).  Draws: B1 (2), u1 (2), B2 (2), then the turn angle.  u2 is u1
    turned about nh, the unit normal along B1 x B2 (the z axis where that is
    0), by 2 pi f: f = w6 on the shared cones.  On the stationary
    incompressible cone, the turn by phi moves u2 . n2, n2 = u1 x B2 + E1, by
    -2 sin(phi/2) (A sin(phi/2) - C cos(phi/2)), with A = n2 . (u1 - h nh),
    h = u1 . nh, and C = n2 . (nh x u1), so the root other than phi = 0 is
    phi = 2 atan2(C, A), f = atan2(C, A) / pi mod 1.  Rows with
    |nh x (n2 - (n2 . nh) nh)| <= 1e-12 |n2|, whose circle lies in the second
    plane, keep the drawn angle.  The turn's cosine is cos(2 pi f) and its
    sine sqrt((1 - cos)(1 + cos)), negative for f > 1/2.  Returns the N x 18
    rows (z1 then z2) and the cone residual of each pair.
    """
    with np.errstate(all="ignore"):
        b1 = _sphere(w[:, 0], w[:, 1])
        u1 = _sphere(w[:, 2], w[:, 3])
        b2 = _sphere(w[:, 4], w[:, 5])
        e1 = _cross(b1, u1)
        v = _cross(b1, b2)
        vn = np.sqrt(_dot(v, v))
        nh = tuple(np.where(vn == 0.0, a, x / vn) for x, a in zip(v, (0.0, 0.0, 1.0)))
        h = _dot(u1, nh)
        t = _cross(nh, u1)
        f = w[:, 6]

        if restricts_u:
            ub = _cross(u1, b2)
            n2 = tuple(ub[i] + e1[i] for i in range(3))
            k = _dot(n2, nh)
            across = tuple(n2[i] - k * nh[i] for i in range(3))
            m = _cross(nh, across)
            free = np.sqrt(_dot(m, m)) <= 1e-12 * np.sqrt(_dot(n2, n2))
            a = _dot(n2, tuple(u1[i] - h * nh[i] for i in range(3)))
            c = _dot(n2, t)
            f = np.where(free, f, np.mod(_libm(math.atan2, c, a) / math.pi, 1.0))

        cos_phi = np.cos(TWO_PI * f)
        sin_phi = np.sqrt((1.0 - cos_phi) * (1.0 + cos_phi))
        sin_phi = np.where(f > 0.5, -sin_phi, sin_phi)
        hc = h * (1.0 - cos_phi)
        u2 = tuple(u1[i] * cos_phi + t[i] * sin_phi + nh[i] * hc for i in range(3))
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


# The plane-wave layer and Triple arithmetic in plain float arithmetic on
# lists of components: no operator or method of Vec3 or Triple and no kernel
# of the package runs in them, so a reordering in those cannot hide here.

def _components(z: Triple) -> list:
    """The nine floats of z, B then u then E."""
    return [x for v in z for x in v]


def _ref_dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _ref_cross(a, b):
    return [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]]


def _ref_norm(a):
    return math.sqrt(_ref_dot(a, a))


def _ref_is_zero(a):
    """True when every component is zero: a vector whose square underflows is not."""
    return a[0] == 0.0 and a[1] == 0.0 and a[2] == 0.0


def reference_triple_arithmetic(a: Triple, b: Triple, t) -> tuple:
    """The components of a + b, a - b and a * t, each a list of nine floats."""
    x, y = _components(a), _components(b)
    return ([p + q for p, q in zip(x, y)], [p - q for p, q in zip(x, y)], [p * t for p in x])


def reference_wave_cone_residuals(z: Triple) -> tuple:
    """The residuals in_wave_cone compares with eps_mem, for B . E and for u . E:
    |a . E| / (|a| |B x u| + |a| |E|), or 0.0 where the denominator vanishes."""
    c = _components(z)
    B, u, E = c[0:3], c[3:6], c[6:9]
    mix = _ref_norm(_ref_cross(B, u))
    ne = _ref_norm(E)
    res = []
    for a in (B, u):
        na = _ref_norm(a)
        den = na * mix + na * ne
        res.append(abs(_ref_dot(a, E)) / den if den else 0.0)
    return tuple(res)


def reference_in_wave_cone(z: Triple, kind: ConeKind, eps: float = 1e-9) -> bool:
    """in_wave_cone: the B . E residual, and on the restricted cone the u . E
    one, at most eps."""
    res = reference_wave_cone_residuals(z)
    return all(r <= eps for r in res[:2 if kind.restricts_u else 1])


def reference_wave_vector_for(direction: Triple, kind: ConeKind, a=1.0, c=1.0):
    """wave_vector_for's (xi_x, xi_t) as a list of three floats and a float, each
    branch as the docstring there states it; zero is decided by components.
    Raises NotInConeError outside the cone and ValueError for (a, c) = (0, 0)
    on a time-dependent kind with B and E nonzero."""
    if not reference_in_wave_cone(direction, kind):
        raise NotInConeError("direction is not in the wave cone")
    comps = _components(direction)
    B, u, E = comps[0:3], comps[3:6], comps[6:9]
    axis = E
    if kind.restricts_u:
        n = _ref_cross(B, u)
        if not _ref_is_zero(n) and not _ref_norm(E) > _ref_norm(n):
            axis = n
    exb = _ref_cross(E, B)
    if _ref_is_zero(axis):
        free = direction.u if kind.incompressible else Vec3(0.0, 0.0, 0.0)
        xi_x = list(unit_perpendicular_to_all((direction.B, free)))
    elif kind.restricts_u:
        xi_x = axis
    elif _ref_norm(B) == 0.0:
        xi_x = [e * (a if a != 0.0 else 1.0) for e in E]
    else:
        if kind.incompressible:
            v1, v2 = _ref_dot(u, E), _ref_dot(u, exb)
            scale = max(abs(v1), abs(v2))
            if scale > 1e-15 * (1.0 + _ref_norm(u) * (_ref_norm(E) + _ref_norm(exb))):
                a, c = v2 / scale, -v1 / scale
        if kind.stationary:
            a, c = (1.0 if a == 0.0 else a), 0.0
        elif a == 0.0 and c == 0.0:
            raise ValueError("coefficients (a, c) = (0, 0)")
        xi_x = [e * a + x * c for e, x in zip(E, exb)]
    nb2 = _ref_dot(B, B)
    xi_t = 0.0 if kind.stationary or nb2 == 0.0 else -_ref_dot(xi_x, exb) / nb2
    return xi_x, xi_t


def reference_staircase_average(d, xi, n_osc, g):
    """staircase_average on the nonstationary cone: the Gauss and Faraday
    conditions on z1 - z2, the average z1 f + z2 (1 - f) with f the fraction,
    and the closed-form error |f - lambda| |z1 - z2|, with |z1 - z2| in
    Triple.norm's documented order at r = s = 1.  Returns (average, fraction,
    error, distance): the average as nine floats and the distance as the
    norm of the average minus the mixture lambda z1 + (1 - lambda) z2,
    formed here, which the closed-form error equals to rounding."""
    x, y = _components(d.z1), _components(d.z2)
    dz = [p - q for p, q in zip(x, y)]
    dB, dE = dz[0:3], dz[6:9]
    k, xi_t = list(xi.xi_x), xi.xi_t
    gauss = abs(_ref_dot(dB, k))
    faraday = _ref_norm([b * xi_t + f for b, f in zip(dB, _ref_cross(k, dE))])
    xi_norm = math.sqrt(_ref_dot(k, k) + xi_t * xi_t)
    size = math.sqrt(_ref_dot(dB, dB) + _ref_dot(dz[3:6], dz[3:6]) + _ref_dot(dE, dE))
    if not max(gauss, faraday) <= RESIDUAL_SLACK * (1.0 + xi_norm * size):
        raise ValueError("xi does not admit plane waves along z1 - z2")
    fracs = _band_fractions(n_osc, g.n, g.periods)
    fraction = float(np.searchsorted(fracs, d.lam, side="left")) / fracs.size
    average = [p * fraction + q * (1.0 - fraction) for p, q in zip(x, y)]
    mixture = [p * d.lam + q * (1.0 - d.lam) for p, q in zip(x, y)]
    distance = math.sqrt(sum((p - q) ** 2 for p, q in zip(average, mixture)))
    return average, fraction, abs(fraction - d.lam) * size, distance


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


def _reference_axes(z, nb, excess, kind):
    """The working plane's axes e1, e2 and the excess length c on the cone's
    normal space: e1 along B (at B = 0 perpendicular to the excess and u); e2
    along e1 x excess, or on the stationary incompressible cone along
    e1 x n, n = B x u, with the excess taken as its part along n, unless
    n = 0, with its rounding along e1 taken off; perpendicular to e1 and u
    where that vanishes."""
    e1 = z.B / nb if nb else unit_perpendicular_to_all((excess, z.u))
    n = z.B.cross(z.u)
    if kind.restricts_u and n.norm2() != 0.0:
        w = e1.cross(n) * (excess.dot(n) / n.norm2())
    else:
        w = e1.cross(excess)
    w = w - e1 * w.dot(e1)
    c = w.norm()
    return e1, (w / c if c else unit_perpendicular_to_all((e1, z.u))), c


def reference_root_direction(a, c):
    """(cos alpha, sin alpha) of the root of a cos(alpha) + c sin(alpha) in
    [pi/2, 3pi/2]: (-|c|, sign(c) a) / sqrt(a^2 + c^2), with (0, 1) at c = 0,
    a = 0 included."""
    rho = math.sqrt(a * a + c * c)
    if rho == 0.0:
        return 0.0, 1.0
    if c == 0.0:
        return -0.0, abs(a) / rho
    return -abs(c) / rho, (a if c > 0.0 else -a) / rho


def _reference_split(z, p, kind):
    """The weight lam and the perturbations (bbar, ubar) of a relaxed-set point:
    the root of sqrt(ss) |B| cos(alpha) = sqrt(rr) u . uhat(alpha), each length
    from its own side and lam from the side with the longer normalised
    perturbation, the signs flipped where that is above 1/2."""
    rr = max(0.0, p.r * p.r - z.B.norm2())
    ss = max(0.0, p.s * p.s - z.u.norm2())
    nb = z.B.norm()
    e1, e2, c = _reference_axes(z, nb, z.E - z.B.cross(z.u), kind)
    scale = math.sqrt(rr * ss)
    st = 1.0 if scale < c else (c / scale if scale else 0.0)
    ct = math.sqrt(max(0.0, 1.0 - st * st))
    p_vec = e1 * ct - e2 * st
    q_vec = e2 * ct + e1 * st
    up, uq = z.u.dot(p_vec), z.u.dot(q_vec)
    sr, sb = math.sqrt(rr), math.sqrt(ss)
    ca, sa = reference_root_direction(sb * nb - sr * up, -(sr * uq))
    xb, xu = nb * ca, up * ca + uq * sa
    b_len, u_len = 2.0 * math.sqrt(rr + xb * xb), 2.0 * math.sqrt(ss + xu * xu)
    if b_len * p.s >= u_len * p.r:
        t = xb / b_len if b_len else 0.0
    else:
        t = xu / u_len if u_len else 0.0
    if t > 0.0:
        b_len, u_len = -b_len, -u_len
    bbar = (e1 * ca + e2 * sa) * b_len
    ubar = (p_vec * ca + q_vec * sa) * u_len
    return max(0.0, 0.5 - abs(t)), bbar, ubar


def _reference_endpoints(B, u, bbar, ubar, lam):
    mu = 1.0 - lam
    B1 = B + bbar * mu
    u1 = u + ubar * mu
    B2 = B - bbar * lam
    u2 = u - ubar * lam
    return Decomposition(lam, Triple(B1, u1, B1.cross(u1)), Triple(B2, u2, B2.cross(u2)))


def reference_decompose(z, p, kind=ConeKind.NONSTATIONARY, tol=None):
    """decompose in Vec3 arithmetic."""
    _reference_require_in_hull(z, p, kind, tol or DEFAULT_TOLERANCES)
    lam, bbar, ubar = _reference_split(z, p, kind)
    return _reference_endpoints(z.B, z.u, bbar, ubar, lam)


def _reference_cone_residual(a, b, unit):
    den = unit + a.norm() * b.norm()
    return abs(a.dot(b)) / den if den else 0.0


def _reference_norm_rs(z, r, s):
    """Triple.norm(r, s) in Vec3 arithmetic, not through the kernel it is the
    view of, in that kernel's order: sqrt(|B|^2 / (r r) + |u|^2 / (s s)
    + |E|^2 / (r r s s)), each product left to right."""
    return math.sqrt(z.B.norm2() / (r * r) + z.u.norm2() / (s * s) + z.E.norm2() / (r * r * s * s))


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
        res["mixing_orthogonality"] = abs(target.u.dot(dz.B.cross(dz.u))) / (
            rs * s + target.u.norm() * dz.B.norm() * dz.u.norm())
    res["lambda_range"] = max(0.0, -d.lam, d.lam - 1.0)
    res["reconstruction"] = _reference_norm_rs(d.combine() - target, r, s) / (
        1.0 + _reference_norm_rs(target, r, s))
    d_bound = excess_bound(target.B, target.u, p)
    prod = d.lam * (1.0 - d.lam) * dz.B.norm() * dz.u.norm()
    res["weight_amplitude_identity"] = abs(prod - d_bound) / (rs + d_bound)
    failures = tuple(name for name, v in res.items() if v > tol.eps_mem)
    return VerificationReport(passed=not failures, max_residual=max(res.values()),
                              residuals=res, failures=failures)


def special_points(p: HullParams) -> dict:
    """One triple per rare case of decompose, at radii p: outside the set, at
    exact Ohm, at B = 0 or u = 0, on an amplitude face or at their corner, and
    item (b) of the slack band, a tiny B parallel to the excess."""
    r, s = p.r, p.s
    B = Vec3(0.3 * r, 0.1 * r, 0.0)
    u = Vec3(0.0, 0.2 * s, 0.4 * s)
    bound = math.sqrt((r * r - B.norm2()) * (s * s - u.norm2()))
    excess = normalized(B.cross(Vec3(0.0, 0.0, 1.0))) * (0.5 * bound)
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


# A stationary-incompressible hull point at r = s = 1 that in_hull accepts with
# u . E at 0.9 eps_mem of g3's bound.  decompose takes its excess along B x u,
# so the split drops the part along u and fails reconstruction.
MIXING_GAP_POINT = Triple(
    Vec3(0.21291284845497171, -0.8350749385942525, -0.49785248054581055),
    Vec3(-0.263191832637829, -0.1451105884483324, 0.2211072889423951),
    Vec3(-0.2530910073186107, 0.08271424186963601, -0.24697861824831405))

# The split of MIXING_GAP_POINT that decompose gave while it took the excess
# as it came, with its part along u: every check but mixing_orthogonality
# passes.
OFF_MIXING_SPLIT = Decomposition(
    0.3173333284952153,
    Triple(Vec3(0.30932797970058723, -0.7600481914960298, -0.5715268563925651),
           Vec3(0.6350883176852815, 0.6365034643057195, -0.4376370284453731),
           Vec3(0.6964040560392275, -0.2275966518871359, 0.6795860579830673)),
    Triple(Vec3(0.1680948782909489, -0.8699506522868037, -0.46360540816314444),
           Vec3(-0.6807517369391145, -0.508438987668917, 0.5273204608893778),
           Vec3(-0.6944578433191965, 0.2269603181679007, -0.677686407346137)))

# The special points in_hull admits only through its eps_mem slack, whose
# splits fail verification: a nonzero excess on the face |B| = r, and a tiny B
# parallel to the excess.
FAILING_SPECIAL_POINTS = ("amplitude boundary", "degenerate plane")


def active_cpu_features() -> set:
    """The CPU features numpy dispatches its SIMD kernels to in this process."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    return {name for name, on in __cpu_features__.items() if on}


def cli_output_digests(commands: list) -> list:
    """[exit code, sha256 of standard output] of cli.main for each argument list."""
    import contextlib
    import hashlib
    import io

    from dynamohull.cli import main

    out = []
    for args in commands:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = main(args)
        out.append([rc, hashlib.sha256(buf.getvalue().encode()).hexdigest()])
    return out
