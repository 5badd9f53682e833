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
sampled uniformly by angle).  u1 satisfies the constraint, so the plane's
offset along its unit normal nhat is u1 . nhat and the circle is never
empty; only B2 = +-B1 (nhat undefined) takes a fixed axis, and there every
u2 on the sphere satisfies the condition.  The stationary incompressible
cone adds the plane (u1 - u2) . (E1 - E2) = 0, i.e. u2 . (u1 x B2 + E1) =
u1 . E1, which u1 also satisfies, so it always cuts the circle; the cut
point is placed in closed form, by the cosine and sine of its angle.

All randomness comes from a named 64-bit generator (PCG64) seeded through
numpy's SeedSequence; worker w of a sharded run draws from
SeedSequence(seed, spawn_key=(w,)), so substreams are independent and the
merged counts and maxima do not depend on worker interleaving.  Every
sampler reads a fixed number of draws per item (its stride: 4 per
constraint-set state, 7 per pair, 8 per mixture and 8 per hull point), and
item i reads draws [stride i, stride (i + 1)) of the stream and no others.

Samplers and campaign run in blocks of BLOCK rows, one Generator.random
call per block, and every block is a state of component columns: a
(B, u, E) triple of float64 columns per state.  No kernel calls a libm
function row by row.  The campaign's membership, decomposition and
verification kernels are the per-point ones, run on numpy columns in the
same operations, in the same order, as a single point, so its reports are
those of the per-point functions bit for bit.  Rows become Triples only
at the edge: the public samplers stack a block's N x 9 rows to yield them,
and the campaign reads its failure rows one at a time (_triple_at).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterator, TextIO

import numpy as np
from numpy.random import PCG64, Generator, SeedSequence

from .core import (
    ConeKind,
    DEFAULT_TOLERANCES,
    HullParams,
    Tolerances,
    Triple,
    _COLUMNS,
    _cone_residual,
    _cross,
    _dot,
    _excess_cap,
    _separation_flags,
    _triple,
    _vec,
    eval_g1,
    eval_g2,
    eval_g3,
    in_hull,
    unit_perpendicular_to_all,
)
from .laminate import DecompositionError, _decompose_block, _residuals, decompose

TWO_PI = 2.0 * math.pi

# Rows per block of the samplers and the campaign: large enough to amortise
# numpy's cost per call, small enough that a campaign's arrays stay at about
# a megabyte whatever its count.
BLOCK = 1024

# Revision of the sample streams a report was drawn from.  Version 2 reads a
# fixed number of draws per item, with no rejection or retry.
STREAM_VERSION = 2


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


def _generator(cfg: SampleConfig) -> Generator:
    """The uniform stream of cfg: PCG64 seeded by SeedSequence(seed, spawn_key=(worker,))."""
    return Generator(PCG64(SeedSequence(cfg.seed, spawn_key=(cfg.worker,))))


def _draws(gen: Generator, count: int, stride: int) -> Iterator[tuple[int, np.ndarray]]:
    """(start, w) for blocks of count items of stride draws each: w holds the
    draws of items start, start + 1, ..., one row per item, read with one
    random call; a double costs one 64-bit output of the stream, so item i
    reads draws [stride i, stride (i + 1)) however the blocks fall."""
    for start in range(0, count, BLOCK):
        n = min(BLOCK, count - start)
        yield start, gen.random(n * stride).reshape(n, stride)


def _sphere(t: np.ndarray, phi: np.ndarray, radius):
    """Points on spheres of the given radii, uniform from the draws t (height)
    and phi (azimuth): component columns."""
    z = 2.0 * t - 1.0
    phi = TWO_PI * phi
    rho = radius * np.sqrt(_COLUMNS.positive(1.0 - z * z))
    return rho * np.cos(phi), rho * np.sin(phi), radius * z


def _ball(w: np.ndarray, radius: float):
    """Uniform-volume points in the ball of the given radius from three draws
    per row (radius, then the sphere): component columns."""
    return _sphere(w[:, 1], w[:, 2], radius * np.cbrt(w[:, 0]))


def _row_triple(f: list[float]) -> Triple:
    """The Triple of one (B, u, E) row."""
    return _triple(_vec(f[0], f[1], f[2]), _vec(f[3], f[4], f[5]), _vec(f[6], f[7], f[8]))


def _triples(rows: np.ndarray) -> Iterator[Triple]:
    """The rows of an N x 9 block as Triples."""
    return map(_row_triple, rows.tolist())


def _triple_at(z, i: int) -> Triple:
    """The Triple of row i of a (B, u, E) state of component columns."""
    return _row_triple([float(x[i]) for v in z for x in v])


def _K_blocks(gen: Generator, cfg: SampleConfig) -> Iterator[tuple]:
    """cfg.count constraint-set states as (B, u, E) column blocks; 4 draws per state."""
    p = cfg.params
    for _, w in _draws(gen, cfg.count, 4):
        B = _sphere(w[:, 0], w[:, 1], p.r)
        u = _sphere(w[:, 2], w[:, 3], p.s)
        yield B, u, _cross(B, u)


def sample_K(cfg: SampleConfig) -> Iterator[Triple]:
    """Uniform constraint-set states: B and u on their spheres, E = B x u."""
    for z in _K_blocks(_generator(cfg), cfg):
        yield from _triples(_stack(z))


def _frame(v):
    """An orthonormal frame (n, p1, p2) of component columns: n = v / |v|, or the
    z axis where v = 0; p1 is n x the coordinate axis of n's smallest
    component, normalised, and p2 = n x p1."""
    with np.errstate(all="ignore"):
        vn = np.sqrt(_dot(v, v))
        zero = vn == 0.0
        n = tuple(np.where(zero, a, x / vn) for x, a in zip(v, (0.0, 0.0, 1.0)))
        an = tuple(np.abs(x) for x in n)
        on_x = (an[0] <= an[1]) & (an[0] <= an[2])
        on_y = ~on_x & (an[1] <= an[2])
        axis = (on_x.astype(float), on_y.astype(float), (~on_x & ~on_y).astype(float))
        p1 = _cross(n, axis)
        inv_p = 1.0 / np.sqrt(_dot(p1, p1))
        p1 = tuple(x * inv_p for x in p1)
    return n, p1, _cross(n, p1)


def _pair_block(w: np.ndarray, p: HullParams, restricts_u: bool):
    """One pair per row of draws (columns 0-6 of w).

    The pair is built on the unit spheres, where every threshold below is
    dimensionless, then scaled once (B by r, u by s, E by rs), so the same
    draws give the same normalised pair at every radius pair.  Draws: B1 (2),
    u1 (2), B2 (2), then the circle angle (the stationary incompressible
    branch draws a root-choice coin instead, or an angle when the whole
    circle satisfies the second plane).  Returns the states z1 and z2 as
    (B, u, E) component columns and the cone residual of each pair.
    """
    with np.errstate(all="ignore"):
        b1 = _sphere(w[:, 0], w[:, 1], 1.0)
        u1 = _sphere(w[:, 2], w[:, 3], 1.0)
        b2 = _sphere(w[:, 4], w[:, 5], 1.0)
        e1 = _cross(b1, u1)
        # The circle u2 . nh = h on the sphere, with nh along B1 x B2 and the
        # offset taken at u1, which lies on the plane: |h| <= 1 but for rounding.
        nh, p1, p2 = _frame(_cross(b1, b2))
        h = _dot(u1, nh)
        rho_c = np.sqrt(_COLUMNS.positive(1.0 - h * h))

        phi = TWO_PI * w[:, 6]
        if restricts_u:
            # Second plane: u2 . (u1 x B2 + E1) = u1 . E1 on the circle, i.e.
            # a_cos cos(phi) + a_sin sin(phi) = c_target.  With (cb, sb) =
            # (cos beta, sin beta) the unit direction of (a_cos, a_sin), the
            # roots are phi = beta +- delta with cos(delta) = ratio; their
            # cosine and sine follow from the angle-sum formulas.  u1 is a
            # root, so |ratio| <= 1 but for rounding, which the clip absorbs.
            ub = _cross(u1, b2)
            n2 = tuple(ub[i] + e1[i] for i in range(3))
            c_target = _dot(u1, e1) - h * _dot(nh, n2)
            a_cos = rho_c * _dot(p1, n2)
            a_sin = rho_c * _dot(p2, n2)
            amp = np.sqrt(a_cos * a_cos + a_sin * a_sin)
            free = amp <= 1e-12 * (1.0 + np.sqrt(_dot(n2, n2)))
            cb = a_cos / amp
            sb = a_sin / amp
            ratio = c_target / amp
            ratio = np.where(ratio > -1.0, ratio, -1.0)
            ratio = np.where(ratio < 1.0, ratio, 1.0)
            sd = np.sqrt(_COLUMNS.positive(1.0 - ratio * ratio))
            sd = np.where(w[:, 6] < 0.5, sd, -sd)
            cos_phi = cb * ratio - sb * sd
            sin_phi = sb * ratio + cb * sd
            # A circle that lies in the second plane keeps the drawn angle.
            at = np.flatnonzero(free)
            cos_phi[at] = np.cos(phi[at])
            sin_phi[at] = np.sin(phi[at])
        else:
            cos_phi = np.cos(phi)
            sin_phi = np.sin(phi)

        ca = rho_c * cos_phi
        sa = rho_c * sin_phi
        u2 = tuple(nh[i] * h + ca * p1[i] + sa * p2[i] for i in range(3))
        e2 = _cross(b2, u2)

        db = tuple(b1[i] - b2[i] for i in range(3))
        de = tuple(e1[i] - e2[i] for i in range(3))
        res = _cone_residual(db, de, 1.0, _COLUMNS)
        if restricts_u:
            du = tuple(u1[i] - u2[i] for i in range(3))
            res2 = _cone_residual(du, de, 1.0, _COLUMNS)
            res = np.where(res2 > res, res2, res)
    r, s = p.r, p.s
    rs = r * s

    def scaled(B, u, E):
        return tuple(x * r for x in B), tuple(x * s for x in u), tuple(x * rs for x in E)

    return scaled(b1, u1, e1), scaled(b2, u2, e2), res


def _stack(*states) -> np.ndarray:
    """The rows of states of (B, u, E) component columns, side by side: N x 9
    for one state, N x 18 for a pair."""
    return np.column_stack([x for z in states for v in z for x in v])


def _pair_blocks(gen: Generator, cfg: SampleConfig, weighted: bool = False) -> Iterator[tuple]:
    """cfg.count pairs as blocks (z1, z2, lam): the states as (B, u, E)
    component columns and the mixture weights, a column when weighted and
    None otherwise.  A pair reads 7 draws, and a weight is the draw after
    its pair.  Raises RuntimeError if a constructed pair is off the cone (a
    residual above 1e-10, or NaN), which rounding alone never produces.
    """
    for _, w in _draws(gen, cfg.count, 8 if weighted else 7):
        z1, z2, res = _pair_block(w, cfg.params, cfg.kind.restricts_u)
        bad = np.flatnonzero(~(res <= 1e-10))
        if len(bad):
            raise RuntimeError(f"constructed pair violates the cone: residual {float(res[bad[0]])}")
        yield z1, z2, w[:, 7] if weighted else None


def _mixture_blocks(gen: Generator, cfg: SampleConfig) -> Iterator[tuple]:
    """cfg.count mixtures lam*z1 + (1-lam)*z2 as blocks of (B, u, E) component
    columns."""
    for z1, z2, lam in _pair_blocks(gen, cfg, weighted=True):
        mu = 1.0 - lam
        yield tuple(tuple(lam * a + mu * b for a, b in zip(v1, v2)) for v1, v2 in zip(z1, z2))


def sample_lambda_pair(cfg: SampleConfig) -> Iterator[tuple[Triple, Triple]]:
    """Constraint-set pairs whose difference lies in the cone for cfg.kind."""
    for z1, z2, _ in _pair_blocks(_generator(cfg), cfg):
        rows = _stack(z1, z2)
        yield from zip(_triples(rows[:, :9]), _triples(rows[:, 9:]))


def sample_first_laminate(cfg: SampleConfig) -> Iterator[Triple]:
    """Convex combinations lam*z1 + (1-lam)*z2 of cone-compatible pairs."""
    for z in _mixture_blocks(_generator(cfg), cfg):
        yield from _triples(_stack(z))


def _excess_directions(B, phi: np.ndarray):
    """Unit directions (columns) perpendicular to B, at the drawn angle 2 pi phi
    in a frame of B: uniform on that circle, since the frame is a function of B."""
    _, p1, p2 = _frame(B)
    phi = TWO_PI * phi
    c, s = np.cos(phi), np.sin(phi)
    return tuple(c * a + s * b for a, b in zip(p1, p2))


def _restricted_directions(B, u, coin: np.ndarray):
    """Unit directions (columns) perpendicular to B and u, signed by a coin draw."""
    with np.errstate(all="ignore"):
        w = _cross(B, u)
        wn = np.sqrt(_dot(w, w))
        e = tuple(x / wn for x in w)
        small = ~(wn > 1e-4 * np.sqrt(_dot(B, B)) * np.sqrt(_dot(u, u)))
    for i in np.flatnonzero(small).tolist():
        t = _triple_at((B, u, w), i)
        e[0][i], e[1][i], e[2][i] = unit_perpendicular_to_all((t.B, t.u))
    keep = coin < 0.5
    return tuple(np.where(keep, x, -x) for x in e)


def _hull_points(B, u, e, delta: np.ndarray, start: int, p: HullParams):
    """Sample points start, start + 1, ... as (B, u, B x u + delta d e), component
    columns, with d the sharp excess bound and delta = 1 at every 100th point."""
    index = np.arange(start, start + len(delta))
    delta = np.where(index % 100 == 99, 1.0, delta)
    f = delta * np.sqrt(_excess_cap(_dot(B, B), _dot(u, u), p, _COLUMNS))
    bxu = _cross(B, u)
    return B, u, tuple(bxu[i] + e[i] * f for i in range(3))


def _hull_blocks(gen: Generator, cfg: SampleConfig) -> Iterator[tuple]:
    """cfg.count points of the relaxed set as (B, u, E) column blocks.

    Draws per point: 3 for B and 3 for u (radius, then the sphere); then 1
    for the excess direction, a sign coin (stationary incompressible kind)
    or an angle about B (the other kinds); then 1 for delta.
    """
    p = cfg.params
    for start, w in _draws(gen, cfg.count, 8):
        B = _ball(w[:, 0:3], p.r)
        u = _ball(w[:, 3:6], p.s)
        if cfg.kind.restricts_u:
            e = _restricted_directions(B, u, w[:, 6])
        else:
            e = _excess_directions(B, w[:, 6])
        yield _hull_points(B, u, e, w[:, 7], start, p)


def sample_hull(cfg: SampleConfig) -> Iterator[Triple]:
    """Points of the closed-form relaxed set: amplitudes inside the balls,
    E = B x u plus a fraction delta of the sharp excess bound.

    delta is uniform on [0, 1]; every 100th sample forces delta = 1 so the
    excess boundary is exercised with positive frequency.
    """
    for z in _hull_blocks(_generator(cfg), cfg):
        yield from _triples(_stack(z))


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
            "stream_version": STREAM_VERSION,
        }
        if self.max_u_orthogonality is not None:
            d["max_u_orthogonality"] = self.max_u_orthogonality
        if self.max_mixing_orthogonality is not None:
            d["max_mixing_orthogonality"] = self.max_mixing_orthogonality
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


def two_sided_hull_check(cfg: SampleConfig, tol: Tolerances | None = None,
                         inner_tol: Tolerances | None = None) -> HullCheckReport:
    """Run the inner (laminate -> membership) and surjective (membership ->
    decomposition) checks and aggregate the outcome.

    cfg.count combinations are generated for the inner half; cfg.count // 10
    points are sampled from the closed-form set for the surjective half.
    inner_tol (default tol) controls the membership slack on the inner half;
    tol controls decomposition and verification.  Both halves run in blocks
    of BLOCK rows and report exactly what the per-point functions would,
    failures in point order.
    """
    tol = tol or DEFAULT_TOLERANCES
    inner_tol = inner_tol or tol
    p = cfg.params
    kind = cfg.kind
    # u-orthogonality residuals are those of the normalised triple
    # (B/r, u/s, E/(rs)); r s^2 is the unit of u . E.
    rss = p.r * p.s * p.s
    report = HullCheckReport(seed=cfg.seed, worker=cfg.worker, kind=kind.label,
                             r=p.r, s=p.s)

    for B, u, E in _mixture_blocks(_generator(cfg), cfg):
        n = len(B[0])
        report.laminate_checked += n
        (g1, g3, g2), _ = _separation_flags(B, u, E, p, kind, inner_tol.eps_mem, _COLUMNS)
        outside = g1 | g3 | g2
        off_cone = np.zeros(n, dtype=bool)
        if kind.restricts_u:
            res = _cone_residual(u, E, rss, _COLUMNS)
            report.max_u_orthogonality = _fold_max(report.max_u_orthogonality, res)
            off_cone = res > tol.eps_mem
        for i in np.flatnonzero(outside | off_cone).tolist():
            zi = _triple_at((B, u, E), i)
            if outside[i]:
                report.record_failure("laminate", zi, "combination fails closed-form membership")
            if off_cone[i]:
                report.record_failure("laminate", zi, f"u.E residual {float(res[i])}")

    hull_cfg = SampleConfig(seed=cfg.seed, count=cfg.count // 10, params=p,
                            kind=kind, worker=cfg.worker)
    for z in _hull_blocks(_generator(hull_cfg), hull_cfg):
        _check_decompositions(report, z, p, kind, tol, rss)
    return report


def _fold_max(acc: float | None, values: np.ndarray) -> float | None:
    """The running maximum acc (None before the first value) over values."""
    if not len(values):
        return acc
    top = float(values.max())
    return top if acc is None or top > acc else acc


def _check_decompositions(report: HullCheckReport, z, p: HullParams,
                          kind: ConeKind, tol: Tolerances, rss: float):
    """Decompose and verify a block z of hull points, (B, u, E) columns, into the report.

    The block kernel splits the interior points; every other point goes
    through decompose itself, so the rare branches and their errors have one
    implementation.  All endpoints are then verified as one block.
    """
    n = len(z[0][0])
    report.decompose_checked += n
    lam, z1, z2, fallback = _decompose_block(*z, p, kind, tol)
    raised = {}
    for i in np.flatnonzero(fallback).tolist():
        try:
            d = decompose(_triple_at(z, i), p, kind, tol)
        except DecompositionError as exc:
            raised[i] = f"decomposition raised: {exc}"
            continue
        lam[i] = d.lam
        for zj, t in ((z1, d.z1), (z2, d.z2)):
            for v, x in zip(zj, (t.B, t.u, t.E)):
                v[0][i], v[1][i], v[2][i] = x
    verified = np.ones(n, dtype=bool)
    verified[list(raised)] = False

    with np.errstate(all="ignore"):  # the rows that raised hold no endpoints
        res = _residuals(lam, z1, z2, z, p, kind, _COLUMNS)
    names = list(res)
    table = np.column_stack([res[name] for name in names])[verified]
    if len(table):
        report.max_verify_residual = max(report.max_verify_residual, float(table.max()))
        by_check = report.max_residual_by_check
        for name, val in zip(names, table.max(axis=0).tolist()):
            by_check[name] = max(by_check.get(name, 0.0), val)
    failing = np.zeros((n, len(names)), dtype=bool)
    failing[verified] = ~(table <= tol.eps_mem)  # a NaN residual fails
    mixing = np.zeros(n)
    if kind.restricts_u:
        dB, du = (tuple(a - b for a, b in zip(z1[k], z2[k])) for k in (0, 1))
        u = z[1]
        with np.errstate(all="ignore"):
            mixing = np.abs(_dot(u, _cross(dB, du))) / (
                rss + np.sqrt(_dot(u, u)) * np.sqrt(_dot(dB, dB)) * np.sqrt(_dot(du, du)))
        report.max_mixing_orthogonality = _fold_max(report.max_mixing_orthogonality,
                                                    mixing[verified])
    unmixed = verified & (mixing > tol.eps_mem)

    for i in np.flatnonzero(~verified | failing.any(axis=1) | unmixed).tolist():
        zi = _triple_at(z, i)
        if i in raised:
            report.record_failure("decompose", zi, raised[i])
            continue
        if failing[i].any():
            report.record_failure("decompose", zi, "verification failed: " + ", ".join(
                name for name, bad in zip(names, failing[i].tolist()) if bad))
        if unmixed[i]:
            report.record_failure("decompose", zi, f"u.(Bbar x ubar) residual {float(mixing[i])}")


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
