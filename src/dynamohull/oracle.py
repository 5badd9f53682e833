"""Brute-force sampling oracle for two-sided validation of the closed form.

The inner half generates convex combinations of constraint-set pairs whose
difference lies in the oscillation cone, and checks that every one of them
passes the closed-form membership predicate.  The outer (surjective) half
samples points directly from the closed-form set and checks that every one
of them admits a verified two-state decomposition.

Pair generation solves the cone condition exactly instead of filtering:
with z1 = (B1, u1, B1 x u1) fixed and B2 drawn on the r-sphere, the
condition (B1 - B2) . (E1 - E2) = 0 reads

    u2 . (B1 x B2) = (B1 - B2) . E1,

a plane constraint on u2, intersected with the s-sphere (a circle that is
sampled uniformly by angle).  The stationary incompressible cone adds the
plane (u1 - u2) . (E1 - E2) = 0, i.e. u2 . (u1 x B2 + E1) = u1 . E1, which
cuts the circle in at most two points.  Empty intersections are rejected
and the draw repeats.

All randomness comes from a named 64-bit generator (PCG64) seeded through
numpy's SeedSequence; worker w of a sharded run draws from
SeedSequence(seed, spawn_key=(w,)), so substreams are independent and the
merged counts and maxima do not depend on worker interleaving.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterator, TextIO

from numpy.random import PCG64, Generator, SeedSequence

from .core import (
    ConeKind,
    DEFAULT_TOLERANCES,
    HullParams,
    Tolerances,
    Triple,
    Vec3,
    _cone_residual,
    _vec,
    eval_g1,
    eval_g2,
    eval_g3,
    hull_excess_bound,
    in_hull,
    unit_perpendicular_to_all,
)
from .laminate import DecompositionError, decompose, verify_decomposition

TWO_PI = 2.0 * math.pi

# Abort threshold for rejection sampling; hitting it means the requested
# configuration essentially never intersects the constraint circle.
MAX_REJECTIONS_PER_SAMPLE = 10 ** 6


@dataclass(frozen=True)
class SampleConfig:
    """Deterministic sampling campaign: same config, same stream, bit for bit."""

    seed: int
    count: int
    params: HullParams
    kind: ConeKind = ConeKind.NONSTATIONARY
    worker: int = 0

    def __post_init__(self):
        if self.count < 0:
            raise ValueError(f"count must be nonnegative, got {self.count}")
        if self.worker < 0:
            raise ValueError(f"worker index must be nonnegative, got {self.worker}")


class UniformStream:
    """Buffered uniform doubles from PCG64; the buffer size is fixed so the
    stream does not depend on how values are consumed."""

    __slots__ = ("_gen", "_buf", "_idx")
    CHUNK = 8192

    def __init__(self, seed: int, worker: int = 0):
        self._gen = Generator(PCG64(SeedSequence(seed, spawn_key=(worker,))))
        self._buf = self._gen.random(self.CHUNK).tolist()
        self._idx = 0

    def uniform(self) -> float:
        i = self._idx
        if i >= self.CHUNK:
            self._buf = self._gen.random(self.CHUNK).tolist()
            i = 0
        self._idx = i + 1
        return self._buf[i]


def _sphere_point(stream: UniformStream, radius: float) -> Vec3:
    """Uniform point on the sphere of the given radius (2 draws)."""
    z = 2.0 * stream.uniform() - 1.0
    phi = TWO_PI * stream.uniform()
    rho = radius * math.sqrt(max(0.0, 1.0 - z * z))
    return _vec(rho * math.cos(phi), rho * math.sin(phi), radius * z)


def _ball_point(stream: UniformStream, radius: float) -> Vec3:
    """Uniform-volume point in the ball of the given radius (3 draws)."""
    r = radius * stream.uniform() ** (1.0 / 3.0)
    return _sphere_point(stream, r)


@dataclass
class SampleStats:
    """Aggregate counters for rejection sampling, filled in while iterating."""

    attempts: int = 0
    accepted: int = 0

    @property
    def acceptance_rate(self) -> float:
        return self.accepted / self.attempts if self.attempts else 0.0


def sample_K(cfg: SampleConfig) -> Iterator[Triple]:
    """Uniform constraint-set states: B and u on their spheres, E = B x u."""
    stream = UniformStream(cfg.seed, cfg.worker)
    p = cfg.params
    for _ in range(cfg.count):
        B = _sphere_point(stream, p.r)
        u = _sphere_point(stream, p.s)
        yield Triple(B, u, B.cross(u))


def _pair_floats(stream: UniformStream, p: HullParams, restricts_u: bool,
                 stats: SampleStats):
    """One constraint-set pair as raw component floats.

    The pair is built on the unit spheres, where every threshold below is
    dimensionless, then scaled once (B by r, u by s, E by rs), so the same
    draws give the same normalised pair at every radius pair.

    Flattened scalar arithmetic: this routine runs a million times per
    verification campaign, so it avoids vector objects entirely.  Draw
    order per attempt: B1 (2), u1 (2), B2 (2), then the circle angle (one
    draw; the stationary incompressible branch instead draws a root-choice
    coin, or an angle when the whole circle satisfies the second plane).
    """
    uniform = stream.uniform
    sqrt = math.sqrt
    last_attempt = stats.attempts + MAX_REJECTIONS_PER_SAMPLE + 1
    while stats.attempts < last_attempt:
        stats.attempts += 1
        t = 2.0 * uniform() - 1.0
        phi = TWO_PI * uniform()
        rho = sqrt(max(0.0, 1.0 - t * t))
        b1x = rho * math.cos(phi); b1y = rho * math.sin(phi); b1z = t
        t = 2.0 * uniform() - 1.0
        phi = TWO_PI * uniform()
        rho = sqrt(max(0.0, 1.0 - t * t))
        u1x = rho * math.cos(phi); u1y = rho * math.sin(phi); u1z = t
        t = 2.0 * uniform() - 1.0
        phi = TWO_PI * uniform()
        rho = sqrt(max(0.0, 1.0 - t * t))
        b2x = rho * math.cos(phi); b2y = rho * math.sin(phi); b2z = t

        e1x = b1y * u1z - b1z * u1y
        e1y = b1z * u1x - b1x * u1z
        e1z = b1x * u1y - b1y * u1x

        nx = b1y * b2z - b1z * b2y
        ny = b1z * b2x - b1x * b2z
        nz = b1x * b2y - b1y * b2x
        n_len = sqrt(nx * nx + ny * ny + nz * nz)
        if n_len <= 1e-9:
            reason = "near-parallel B draws"
            continue
        inv_n = 1.0 / n_len
        nhx = nx * inv_n; nhy = ny * inv_n; nhz = nz * inv_n
        h = ((b1x - b2x) * e1x + (b1y - b2y) * e1y + (b1z - b2z) * e1z) * inv_n
        if abs(h) > 1.0:
            reason = "plane misses the sphere"
            continue
        rho_c = sqrt(max(0.0, 1.0 - h * h))

        # Orthonormal frame of the circle plane (axis picked off nhat).
        anx = abs(nhx); any_ = abs(nhy); anz = abs(nhz)
        if anx <= any_ and anx <= anz:
            wx, wy, wz = 1.0, 0.0, 0.0
        elif any_ <= anz:
            wx, wy, wz = 0.0, 1.0, 0.0
        else:
            wx, wy, wz = 0.0, 0.0, 1.0
        p1x = nhy * wz - nhz * wy
        p1y = nhz * wx - nhx * wz
        p1z = nhx * wy - nhy * wx
        inv_p = 1.0 / sqrt(p1x * p1x + p1y * p1y + p1z * p1z)
        p1x *= inv_p; p1y *= inv_p; p1z *= inv_p
        p2x = nhy * p1z - nhz * p1y
        p2y = nhz * p1x - nhx * p1z
        p2z = nhx * p1y - nhy * p1x

        if restricts_u:
            # Second plane: u2 . (u1 x B2 + E1) = u1 . E1 on the circle.
            n2x = u1y * b2z - u1z * b2y + e1x
            n2y = u1z * b2x - u1x * b2z + e1y
            n2z = u1x * b2y - u1y * b2x + e1z
            c_target = (u1x * e1x + u1y * e1y + u1z * e1z
                        - h * (nhx * n2x + nhy * n2y + nhz * n2z))
            a_cos = rho_c * (p1x * n2x + p1y * n2y + p1z * n2z)
            a_sin = rho_c * (p2x * n2x + p2y * n2y + p2z * n2z)
            amp = math.hypot(a_cos, a_sin)
            degeneracy = 1e-12 * (1.0 + sqrt(n2x * n2x + n2y * n2y + n2z * n2z))
            if amp <= degeneracy:
                if abs(c_target) > degeneracy:
                    reason = "degenerate circle"
                    continue
                phi = TWO_PI * uniform()
            elif abs(c_target) > amp:
                reason = "second plane misses the circle"
                continue
            else:
                base = math.atan2(a_sin, a_cos)
                delta = math.acos(min(1.0, max(-1.0, c_target / amp)))
                phi = base + delta if uniform() < 0.5 else base - delta
        else:
            phi = TWO_PI * uniform()

        ca = rho_c * math.cos(phi)
        sa = rho_c * math.sin(phi)
        u2x = nhx * h + ca * p1x + sa * p2x
        u2y = nhy * h + ca * p1y + sa * p2y
        u2z = nhz * h + ca * p1z + sa * p2z
        e2x = b2y * u2z - b2z * u2y
        e2y = b2z * u2x - b2x * u2z
        e2z = b2x * u2y - b2y * u2x

        dbx = b1x - b2x; dby = b1y - b2y; dbz = b1z - b2z
        dex = e1x - e2x; dey = e1y - e2y; dez = e1z - e2z
        db_len = sqrt(dbx * dbx + dby * dby + dbz * dbz)
        de_len = sqrt(dex * dex + dey * dey + dez * dez)
        res = abs(dbx * dex + dby * dey + dbz * dez) / (1.0 + db_len * de_len)
        if restricts_u:
            dux = u1x - u2x; duy = u1y - u2y; duz = u1z - u2z
            du_len = sqrt(dux * dux + duy * duy + duz * duz)
            res2 = abs(dux * dex + duy * dey + duz * dez) / (1.0 + du_len * de_len)
            if res2 > res:
                res = res2
        if res > 1e-10:
            raise RuntimeError(f"constructed pair violates the cone: residual {res}")
        stats.accepted += 1
        r, s = p.r, p.s
        rs = r * s
        return (b1x * r, b1y * r, b1z * r, u1x * s, u1y * s, u1z * s, e1x * rs, e1y * rs, e1z * rs,
                b2x * r, b2y * r, b2z * r, u2x * s, u2y * s, u2z * s, e2x * rs, e2y * rs, e2z * rs)
    raise RuntimeError(f"pair sampling rejected 1e6 draws in a row ({reason}) for params {p!r}")


def _pair_stream(stream: UniformStream, cfg: SampleConfig, stats: SampleStats | None):
    """cfg.count pairs from _pair_floats, drawn lazily: a caller's own draws
    between two pairs (sample_first_laminate's weight) come after the first."""
    stats = stats if stats is not None else SampleStats()
    for _ in range(cfg.count):
        yield _pair_floats(stream, cfg.params, cfg.kind.restricts_u, stats)


def sample_lambda_pair(cfg: SampleConfig,
                       stats: SampleStats | None = None) -> Iterator[tuple[Triple, Triple]]:
    """Constraint-set pairs whose difference lies in the cone for cfg.kind."""
    for f in _pair_stream(UniformStream(cfg.seed, cfg.worker), cfg, stats):
        z1 = Triple(_vec(f[0], f[1], f[2]), _vec(f[3], f[4], f[5]), _vec(f[6], f[7], f[8]))
        z2 = Triple(_vec(f[9], f[10], f[11]), _vec(f[12], f[13], f[14]), _vec(f[15], f[16], f[17]))
        yield z1, z2


def sample_first_laminate(cfg: SampleConfig,
                          stats: SampleStats | None = None) -> Iterator[Triple]:
    """Convex combinations lam*z1 + (1-lam)*z2 of cone-compatible pairs."""
    stream = UniformStream(cfg.seed, cfg.worker)
    for f in _pair_stream(stream, cfg, stats):
        lam = stream.uniform()
        mu = 1.0 - lam
        yield Triple(
            _vec(lam * f[0] + mu * f[9], lam * f[1] + mu * f[10], lam * f[2] + mu * f[11]),
            _vec(lam * f[3] + mu * f[12], lam * f[4] + mu * f[13], lam * f[5] + mu * f[14]),
            _vec(lam * f[6] + mu * f[15], lam * f[7] + mu * f[16], lam * f[8] + mu * f[17]),
        )


def _perpendicular_excess_direction(stream: UniformStream, B: Vec3, u: Vec3,
                                    kind: ConeKind) -> Vec3:
    """Unit direction perpendicular to B (and to u for the stationary
    incompressible cone) along which excess electric field is added."""
    if kind.restricts_u:
        w = B.cross(u)
        if w.norm() > 1e-4 * B.norm() * u.norm():
            e = w.normalized()
        else:
            e = unit_perpendicular_to_all((B, u))
        return e if stream.uniform() < 0.5 else -e
    nb = B.norm()
    while True:
        v = _sphere_point(stream, 1.0)
        if nb == 0.0:
            return v
        bhat = B / nb
        w = v - bhat * v.dot(bhat)
        if w.norm() > 1e-4:
            return w.normalized()


def sample_hull(cfg: SampleConfig) -> Iterator[Triple]:
    """Points of the closed-form relaxed set: amplitudes inside the balls,
    E = B x u plus a fraction delta of the sharp excess bound.

    delta is uniform on [0, 1]; every 100th sample forces delta = 1 so the
    excess boundary is exercised with positive frequency.
    """
    stream = UniformStream(cfg.seed, cfg.worker)
    p = cfg.params
    for i in range(cfg.count):
        B = _ball_point(stream, p.r)
        u = _ball_point(stream, p.s)
        e = _perpendicular_excess_direction(stream, B, u, cfg.kind)
        delta = stream.uniform()
        if i % 100 == 99:
            delta = 1.0
        d_bound = hull_excess_bound(B, u, p)
        E = B.cross(u) + e * (delta * d_bound)
        yield Triple(B, u, E)


@dataclass
class HullCheckReport:
    """Outcome of a two-sided campaign; serializes deterministically."""

    seed: int
    worker: int
    kind: str
    r: float
    s: float
    laminate_checked: int = 0
    laminate_failure_count: int = 0
    decompose_checked: int = 0
    decompose_failure_count: int = 0
    max_verify_residual: float = 0.0
    max_residual_by_check: dict = field(default_factory=dict)
    max_u_orthogonality: float | None = None
    max_mixing_orthogonality: float | None = None
    pair_attempts: int = 0
    failures: list = field(default_factory=list)

    MAX_RECORDED_FAILURES = 20

    @property
    def failure_count(self) -> int:
        return self.laminate_failure_count + self.decompose_failure_count

    @property
    def max_residual(self) -> float:
        worst = self.max_verify_residual
        for extra in (self.max_u_orthogonality, self.max_mixing_orthogonality):
            if extra is not None:
                worst = max(worst, extra)
        return worst

    def record_failure(self, side: str, z: Triple, reason: str):
        if side == "laminate":
            self.laminate_failure_count += 1
        else:
            self.decompose_failure_count += 1
        if len(self.failures) < self.MAX_RECORDED_FAILURES:
            self.failures.append({"side": side, "triple": z.to_json_dict(),
                                  "reason": reason})

    def to_json_dict(self) -> dict:
        d = {
            "seed": self.seed,
            "worker": self.worker,
            "kind": self.kind,
            "r": self.r,
            "s": self.s,
            "checked": self.laminate_checked + self.decompose_checked,
            "checked_detail": {"laminate": self.laminate_checked,
                               "decompose": self.decompose_checked},
            "failures": self.failures,
            "failure_count": self.failure_count,
            "max_residual": self.max_residual,
            "max_verify_residual": self.max_verify_residual,
            "max_residual_by_check": dict(sorted(self.max_residual_by_check.items())),
            "pair_attempts": self.pair_attempts,
        }
        if self.max_u_orthogonality is not None:
            d["max_u_orthogonality"] = self.max_u_orthogonality
        if self.max_mixing_orthogonality is not None:
            d["max_mixing_orthogonality"] = self.max_mixing_orthogonality
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


def two_sided_hull_check(cfg: SampleConfig, tol: Tolerances | None = None,
                         inner_tol: Tolerances | None = None,
                         decompose_count: int | None = None) -> HullCheckReport:
    """Run the inner (laminate -> membership) and surjective (membership ->
    decomposition) checks and aggregate the outcome.

    cfg.count combinations are generated for the inner half; decompose_count
    (default cfg.count // 10) points are sampled from the closed-form set
    for the surjective half.  inner_tol (default tol) controls the
    membership slack on the inner half; tol controls decomposition and
    verification.
    """
    tol = tol or DEFAULT_TOLERANCES
    inner_tol = inner_tol or tol
    if decompose_count is None:
        decompose_count = cfg.count // 10
    p = cfg.params
    kind = cfg.kind
    # u-orthogonality residuals are those of the normalised triple
    # (B/r, u/s, E/(rs)); r s^2 is the unit of u . E.
    rss = p.r * p.s * p.s
    report = HullCheckReport(seed=cfg.seed, worker=cfg.worker, kind=kind.label,
                             r=p.r, s=p.s)

    stats = SampleStats()
    for z in sample_first_laminate(cfg, stats):
        report.laminate_checked += 1
        if not in_hull(z, p, kind, inner_tol):
            report.record_failure("laminate", z, "combination fails closed-form membership")
        if kind.restricts_u:
            res = _cone_residual(z.u, z.E, rss)
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


CSV_HEADER = "Bx,By,Bz,ux,uy,uz,Ex,Ey,Ez,in_hull,g1,g2,g3"


def _sample_row(z: Triple, p: HullParams, kind: ConeKind, tol: Tolerances | None) -> dict:
    """The per-sample verdict and separating-function values of a CSV or JSON row."""
    return {"in_hull": in_hull(z, p, kind, tol), "g1": eval_g1(z), "g2": eval_g2(z, p),
            "g3": eval_g3(z)}


def write_samples_csv(out: TextIO, triples: Iterator[Triple], p: HullParams,
                      kind: ConeKind = ConeKind.NONSTATIONARY,
                      tol: Tolerances | None = None) -> int:
    """Dump triples with membership verdict and separating-function values."""
    out.write(CSV_HEADER + "\n")
    n = 0
    for z in triples:
        row = _sample_row(z, p, kind, tol)
        cells = [repr(v) for v in (*z.B, *z.u, *z.E)]
        cells.append("true" if row["in_hull"] else "false")
        cells += [repr(row[g]) for g in ("g1", "g2", "g3")]
        out.write(",".join(cells) + "\n")
        n += 1
    return n
