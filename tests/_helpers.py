"""Shared construction helpers for the test suite."""

import math

import numpy as np

from dynamohull import (
    DEFAULT_TOLERANCES,
    ConeKind,
    DecompositionError,
    HullCheckReport,
    HullParams,
    SampleConfig,
    SampleStats,
    Triple,
    Vec3,
    decompose,
    in_hull,
    sample_first_laminate,
    sample_hull,
    unit_perpendicular_to_all,
    verify_decomposition,
)

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


def reference_two_sided_hull_check(cfg, tol=None, inner_tol=None, decompose_count=None):
    """two_sided_hull_check one point at a time through the public per-point
    API: the reference the block campaign engine must reproduce exactly."""
    tol = tol or DEFAULT_TOLERANCES
    inner_tol = inner_tol or tol
    if decompose_count is None:
        decompose_count = cfg.count // 10
    p = cfg.params
    kind = cfg.kind
    rss = p.r * p.s * p.s
    report = HullCheckReport(seed=cfg.seed, worker=cfg.worker, kind=kind.label,
                             r=p.r, s=p.s)

    stats = SampleStats()
    for z in sample_first_laminate(cfg, stats):
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
    report.pair_attempts = stats.attempts

    hull_cfg = SampleConfig(seed=cfg.seed, count=decompose_count, params=p,
                            kind=kind, worker=cfg.worker)
    for z in sample_hull(hull_cfg):
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
    return report


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
