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

All randomness comes from a named 64-bit generator (PCG64) seeded by
numpy's SeedSequence(seed, spawn_key=(0,)).  Every sampler reads a fixed
number of draws per item (its stride: 4 per constraint-set state, 7 per
pair, 8 per mixture and 8 per hull point), and item i reads draws
[stride i, stride (i + 1)) of the stream and no others.

Samplers and campaign run in blocks of BLOCK rows, one Generator.random
call per block, and every block is a state of component columns: a
(B, u, E) triple of float64 columns per state.  No kernel calls a libm
function row by row.  The blocks are built by functions, mapped over the
draws, and each campaign loop drops its block before it asks for the next,
so one block's columns are alive at a time and the campaign's memory is a
few dozen columns of BLOCK rows whatever its count.  No output depends on
BLOCK: every kernel is elementwise, and the report folds are maxima, counts
and failure lists in point order (a NaN residual, which fails its point,
also drops its block's maxima; see _check_decompositions).  The campaign's
membership, decomposition and verification kernels are the per-point ones,
run on numpy columns in the same operations, in the same order, as a
single point, so its reports are those of the per-point functions bit for
bit.  Rows become Triples only at the edge: the public samplers stack a
block's rows (N x 9, or N x 18 for pairs) and make Triples of them a slice
at a time (_items), and the campaign reads its failure rows one at a time
(_triple_at).

This module is where numpy comes in: core and laminate import none, so the
per-point API loads without it.  _COLUMNS is the column view of core's
kernels, and the block decomposition (_decompose_block) lives here, next to
the campaign that calls it, running laminate's stage functions.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import starmap
from typing import Iterator, TextIO

import numpy as np
from numpy.random import PCG64, Generator, SeedSequence

from .core import (
    ConeKind,
    DEFAULT_TOLERANCES,
    HullParams,
    Tolerances,
    Triple,
    _Math,
    _cone_residual,
    _cross,
    _dot,
    _excess_cap,
    _frame,
    _perpendicular,
    _separation_flags,
    _triple,
    _vec,
    eval_g1,
    eval_g2,
    eval_g3,
    in_hull,
)
from .laminate import (
    DecompositionError,
    _endpoints,
    _exact_ohm_split,
    _excess_frame,
    _perturbations,
    _plane_normal,
    _residuals,
    _sinusoid,
    _weight,
    decompose,
)

# core._Math on numpy columns: the functions core's kernels, written once on
# component triples, take from a block of columns (core._FLOATS is the view
# on the floats of one point).
_COLUMNS = _Math(np.sqrt, np.where, lambda x: np.where(x > 0.0, x, 0.0),
                 lambda n, d: np.divide(n, d, out=np.zeros_like(d), where=d != 0.0))

TWO_PI = 2.0 * math.pi

# Rows per block of the samplers and the campaign.  At 1024 rows each numpy
# call spent about as long on dispatch and allocation as on arithmetic.  A
# 100k + 10k campaign at r = s = 1 (2 vCPUs, 2 MiB L2 per core) took 66 ms
# at 1024 rows, 55 ms at 3072 and 60 ms at 4096; the pair kernel 40, 35 and
# 38 ms of it.  Its peak is about 62 live columns of BLOCK doubles (one
# block's: no frame keeps a block while the next is built), 1.5 MB at 3072
# rows, inside L2; at 4096 rows, 2.0 MB, it is not.
BLOCK = 3072

# Revision of the sample streams a report was drawn from.  Version 3 reads a
# fixed number of draws per item and takes core._perpendicular's directions.
STREAM_VERSION = 3


@dataclass(frozen=True)
class SampleConfig:
    """Deterministic sampling campaign: same config, same stream, bit for bit."""

    seed: int
    count: int
    params: HullParams
    kind: ConeKind = ConeKind.NONSTATIONARY

    def __post_init__(self):
        if self.count < 0:
            raise ValueError(f"count must be nonnegative, got {self.count}")


def _generator(cfg: SampleConfig) -> Generator:
    """The uniform stream of cfg: PCG64 seeded by SeedSequence(seed, spawn_key=(0,))."""
    return Generator(PCG64(SeedSequence(cfg.seed, spawn_key=(0,))))


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


def _row_pair(f: list[float]) -> tuple[Triple, Triple]:
    """The pair of Triples of one (B1, u1, E1, B2, u2, E2) row."""
    return _row_triple(f), _row_triple(f[9:])


def _items(make, row_blocks: Iterator[np.ndarray]) -> Iterator:
    """make(row) for each row of a sequence of row blocks, the row a list of
    Python floats.  The floats are made 256 rows at a time, as a whole block
    of them would outweigh its columns fourfold, and each block is dropped
    before the next one is built."""
    for rows in row_blocks:
        for i in range(0, len(rows), 256):
            yield from map(make, rows[i:i + 256].tolist())
        del rows


def _triple_at(z, i: int) -> Triple:
    """The Triple of row i of a (B, u, E) state of component columns."""
    return _row_triple([float(x[i]) for v in z for x in v])


def _K_blocks(gen: Generator, cfg: SampleConfig) -> Iterator[tuple]:
    """cfg.count constraint-set states as (B, u, E) column blocks; 4 draws per state."""
    p = cfg.params

    def states(_, w):
        B = _sphere(w[:, 0], w[:, 1], p.r)
        u = _sphere(w[:, 2], w[:, 3], p.s)
        return B, u, _cross(B, u)

    return starmap(states, _draws(gen, cfg.count, 4))


def sample_K(cfg: SampleConfig) -> Iterator[Triple]:
    """Uniform constraint-set states: B and u on their spheres, E = B x u."""
    return _items(_row_triple, map(_stack, _K_blocks(_generator(cfg), cfg)))


def _pair_block(w: np.ndarray, p: HullParams, restricts_u: bool):
    """One pair per row of draws (columns 0-6 of w).

    The pair is built on the unit spheres, where every threshold below is
    dimensionless, then scaled once (B by r, u by s, E by rs), so the same
    draws give the same normalised pair at every radius pair.  Draws: B1 (2),
    u1 (2), B2 (2), then the circle angle (the stationary incompressible
    branch draws a root-choice coin instead, or an angle when the whole
    circle satisfies the second plane).  Returns the states z1 and z2 as
    (B, u, E) component columns and the cone residual of each pair.  Each
    stage is a function, so its intermediates die when it returns.
    """
    with np.errstate(all="ignore"):
        b1 = _sphere(w[:, 0], w[:, 1], 1.0)
        u1 = _sphere(w[:, 2], w[:, 3], 1.0)
        b2 = _sphere(w[:, 4], w[:, 5], 1.0)
        e1 = _cross(b1, u1)
        u2 = _circle_point(b1, u1, b2, e1, w[:, 6], restricts_u)
        e2 = _cross(b2, u2)
        z1, z2 = (b1, u1, e1), (b2, u2, e2)
        res = _pair_residual(z1, z2, restricts_u)
    # Scaled in place: every column is this function's own.
    for z in (z1, z2):
        for v, k in zip(z, (p.r, p.s, p.r * p.s)):
            for x in v:
                np.multiply(x, k, out=x)
    return z1, z2, res


def _circle_point(b1, u1, b2, e1, draw: np.ndarray, restricts_u: bool):
    """u2 on the unit sphere and the plane of the cone condition, at the drawn
    angle 2 pi draw, or, on the stationary incompressible cone, at the root of
    the second plane chosen by the coin draw: component columns."""
    # The circle u2 . nh = h on the sphere, with nh along B1 x B2 and the
    # offset taken at u1, which lies on the plane: |h| <= 1 but for rounding.
    nh, p1, p2 = _frame(_cross(b1, b2), _COLUMNS)
    h = _dot(u1, nh)
    rho_c = np.sqrt(_COLUMNS.positive(1.0 - h * h))
    if restricts_u:
        cos_phi, sin_phi = _second_plane_root(u1, b2, e1, (nh, p1, p2), h, rho_c, draw)
    else:
        phi = TWO_PI * draw
        cos_phi, sin_phi = np.cos(phi), np.sin(phi)
    ca = rho_c * cos_phi
    sa = rho_c * sin_phi
    return tuple(nh[i] * h + ca * p1[i] + sa * p2[i] for i in range(3))


def _second_plane_root(u1, b2, e1, frame, h, rho_c, draw: np.ndarray):
    """(cos phi, sin phi) of the circle point on the second plane
    u2 . (u1 x B2 + E1) = u1 . E1, the root picked by the coin draw < 1/2."""
    nh, p1, p2 = frame
    # On the circle the plane reads a_cos cos(phi) + a_sin sin(phi) = c_target.
    # With (cb, sb) = (cos beta, sin beta) the unit direction of (a_cos,
    # a_sin), the roots are phi = beta +- delta with cos(delta) = ratio;
    # their cosine and sine follow from the angle-sum formulas.  u1 is a
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
    sd = np.where(draw < 0.5, sd, -sd)
    cos_phi = cb * ratio - sb * sd
    sin_phi = sb * ratio + cb * sd
    # A circle that lies in the second plane keeps the drawn angle.
    at = np.flatnonzero(free)
    phi = TWO_PI * draw[at]
    cos_phi[at] = np.cos(phi)
    sin_phi[at] = np.sin(phi)
    return cos_phi, sin_phi


def _pair_residual(z1, z2, restricts_u: bool) -> np.ndarray:
    """The cone residual of the unit pairs z1, z2: (B, E), and the larger of it
    and (u, E)'s on the stationary incompressible cone."""
    (b1, u1, e1), (b2, u2, e2) = z1, z2
    db = tuple(b1[i] - b2[i] for i in range(3))
    de = tuple(e1[i] - e2[i] for i in range(3))
    res = _cone_residual(db, de, 1.0, _COLUMNS)
    if restricts_u:
        du = tuple(u1[i] - u2[i] for i in range(3))
        res2 = _cone_residual(du, de, 1.0, _COLUMNS)
        res = np.where(res2 > res, res2, res)
    return res


def _stack(*states) -> np.ndarray:
    """The rows of states of (B, u, E) component columns, side by side: N x 9
    for one state, N x 18 for a pair."""
    return np.column_stack([x for z in states for v in z for x in v])


def _pair_blocks(gen: Generator, cfg: SampleConfig, weighted: bool = False) -> Iterator[tuple]:
    """cfg.count pairs as blocks (z1, z2), and (z1, z2, lam) when weighted: the
    states as (B, u, E) component columns and the mixture weights, a column.  A pair reads 7 draws, and a weight is the draw after
    its pair.  Raises RuntimeError if a constructed pair is off the cone (a
    residual above 1e-10, or NaN), which rounding alone never produces.
    """
    p, restricts_u = cfg.params, cfg.kind.restricts_u

    def pairs(_, w):
        z1, z2, res = _pair_block(w, p, restricts_u)
        bad = np.flatnonzero(~(res <= 1e-10))
        if len(bad):
            raise RuntimeError(f"constructed pair violates the cone: residual {float(res[bad[0]])}")
        return (z1, z2, w[:, 7]) if weighted else (z1, z2)

    return starmap(pairs, _draws(gen, cfg.count, 8 if weighted else 7))


def _mixture(z1, z2, lam):
    """The mixture lam*z1 + (1-lam)*z2 of two (B, u, E) states of component columns."""
    mu = 1.0 - lam
    return tuple(tuple(lam * a + mu * b for a, b in zip(v1, v2)) for v1, v2 in zip(z1, z2))


def _mixture_blocks(gen: Generator, cfg: SampleConfig) -> Iterator[tuple]:
    """cfg.count mixtures lam*z1 + (1-lam)*z2 as blocks of (B, u, E) component
    columns."""
    return starmap(_mixture, _pair_blocks(gen, cfg, weighted=True))


def sample_lambda_pair(cfg: SampleConfig) -> Iterator[tuple[Triple, Triple]]:
    """Constraint-set pairs whose difference lies in the cone for cfg.kind."""
    return _items(_row_pair, starmap(_stack, _pair_blocks(_generator(cfg), cfg)))


def sample_first_laminate(cfg: SampleConfig) -> Iterator[Triple]:
    """Convex combinations lam*z1 + (1-lam)*z2 of cone-compatible pairs."""
    return _items(_row_triple, map(_stack, _mixture_blocks(_generator(cfg), cfg)))


def _excess_directions(B, phi: np.ndarray):
    """Unit directions (columns) perpendicular to B, at the drawn angle 2 pi phi
    in a frame of B: uniform on that circle, since the frame is a function of B."""
    with np.errstate(all="ignore"):
        _, p1, p2 = _frame(B, _COLUMNS)
    phi = TWO_PI * phi
    c, s = np.cos(phi), np.sin(phi)
    return tuple(c * a + s * b for a, b in zip(p1, p2))


def _restricted_directions(B, u, coin: np.ndarray):
    """Unit directions (columns) perpendicular to B and u, signed by a coin draw."""
    with np.errstate(all="ignore"):
        e = _perpendicular(B, u, _COLUMNS)
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
    p, restricts_u = cfg.params, cfg.kind.restricts_u

    def points(start, w):
        B = _ball(w[:, 0:3], p.r)
        u = _ball(w[:, 3:6], p.s)
        if restricts_u:
            e = _restricted_directions(B, u, w[:, 6])
        else:
            e = _excess_directions(B, w[:, 6])
        return _hull_points(B, u, e, w[:, 7], start, p)

    return starmap(points, _draws(gen, cfg.count, 8))


def sample_hull(cfg: SampleConfig) -> Iterator[Triple]:
    """Points of the closed-form relaxed set: amplitudes inside the balls,
    E = B x u plus a fraction delta of the sharp excess bound.

    delta is uniform on [0, 1]; every 100th sample forces delta = 1 so the
    excess boundary is exercised with positive frequency.
    """
    return _items(_row_triple, map(_stack, _hull_blocks(_generator(cfg), cfg)))


@dataclass
class HullCheckReport:
    """Outcome of a two-sided campaign; serializes deterministically."""

    seed: int
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
    report = HullCheckReport(seed=cfg.seed, kind=kind.label, r=p.r, s=p.s)

    # Each loop drops its block before the next one is drawn and built, so
    # one block's columns are alive at a time.
    for z in _mixture_blocks(_generator(cfg), cfg):
        _check_mixtures(report, z, p, kind, tol, inner_tol, rss)
        del z

    hull_cfg = SampleConfig(seed=cfg.seed, count=cfg.count // 10, params=p, kind=kind)
    for z in _hull_blocks(_generator(hull_cfg), hull_cfg):
        _check_decompositions(report, z, p, kind, tol, rss)
        del z
    return report


def _fold_max(acc: float | None, values: np.ndarray) -> float | None:
    """The running maximum acc (None before the first value) over values."""
    if not len(values):
        return acc
    top = float(values.max())
    return top if acc is None or top > acc else acc


def _check_mixtures(report: HullCheckReport, z, p: HullParams, kind: ConeKind,
                    tol: Tolerances, inner_tol: Tolerances, rss: float):
    """Check a block z of mixtures, (B, u, E) columns, for membership (inner_tol)
    and, on the restricted cone, u-orthogonality (tol) into the report."""
    B, u, E = z
    n = len(B[0])
    report.laminate_checked += n
    g1, g3, g2 = _separation_flags(B, u, E, p, kind, inner_tol.eps_mem, _COLUMNS)[0]
    outside = g1 | g3 | g2
    off_cone = np.zeros(n, dtype=bool)
    if kind.restricts_u:
        res = _cone_residual(u, E, rss, _COLUMNS)
        report.max_u_orthogonality = _fold_max(report.max_u_orthogonality, res)
        off_cone = res > tol.eps_mem
    for i in np.flatnonzero(outside | off_cone).tolist():
        zi = _triple_at(z, i)
        if outside[i]:
            report.record_failure("laminate", zi, "combination fails closed-form membership")
        if off_cone[i]:
            report.record_failure("laminate", zi, f"u.E residual {float(res[i])}")


def _decompose_block(B, u, E, p: HullParams, kind: ConeKind, tol: Tolerances):
    """decompose on a block of targets (B, u, E), columns.

    Returns (lam, z1, z2, raises): the weights and the endpoint states (as
    columns), decompose's bit for bit, and the mask of the rows decompose
    raises on: outside the relaxed set, or off exact Ohm with the amplitude
    on the boundary or a degenerate working plane.  lam, z1 and z2 are
    meaningless on those rows.
    """
    with np.errstate(all="ignore"):
        lam, bbar, ubar, raises = _split_block(B, u, E, p, kind, tol)
        z1, z2 = _endpoints(B, u, bbar, ubar, lam)
    return lam, z1, z2, raises


def _split_block(B, u, E, p: HullParams, kind: ConeKind, tol: Tolerances):
    """The weights and perturbations (lam, bbar, ubar) of _decompose_block and its
    mask of raising rows, in a function of their own, so that the working-plane
    columns die before the endpoints are built.  The exact-Ohm split and the
    B = 0 axis run on their own rows only."""
    r, s = p.r, p.s
    m = _COLUMNS
    (g1, g3, g2), (nb2, nu2, excess, c2) = _separation_flags(B, u, E, p, kind, tol.eps_mem, m)
    rr, ss = r * r - nb2, s * s - nu2
    ohm = np.sqrt(c2) <= tol.eps_root * r * s
    f = _excess_frame(rr, ss, excess, m)
    nb = np.sqrt(nb2)
    e1 = tuple(x / nb for x in B)
    zero = nb == 0.0
    if zero.any():
        for x, y in zip(e1, _frame(tuple(a[zero] for a in f.nhat), m)[1]):
            x[zero] = y
    w, wn = _plane_normal(e1, f, m)
    bbar, ubar = _perturbations(nb, _sinusoid(u, nb, e1, w, wn, f), f, m)
    lam = _weight(B, bbar, m)
    if ohm.any():
        split = _exact_ohm_split(tuple(a[ohm] for a in B), tuple(a[ohm] for a in u),
                                 rr[ohm], ss[ohm], m)
        for x, y in zip(bbar + ubar, split[0] + split[1]):
            x[ohm] = y
        lam[ohm] = 0.5
    guarded = (rr <= tol.eps_mem * r * r) | (ss <= tol.eps_mem * s * s) | ~(wn >= 1e-6)
    return lam, bbar, ubar, g1 | g3 | g2 | (~ohm & guarded)


def _check_decompositions(report: HullCheckReport, z, p: HullParams,
                          kind: ConeKind, tol: Tolerances, rss: float):
    """Decompose and verify a block z of hull points, (B, u, E) columns, into the report.

    The block kernel splits every point decompose splits, and the block is
    verified as one; decompose itself runs only on the points it raises on,
    for the error message, so the rare branches have one implementation.
    """
    n = len(z[0][0])
    report.decompose_checked += n
    lam, z1, z2, raises = _decompose_block(*z, p, kind, tol)
    verified = ~raises

    with np.errstate(all="ignore"):  # the rows that raise hold no endpoints
        res = _residuals(lam, z1, z2, z, p, kind, _COLUMNS)
    # Folded one check at a time: the rows each check fails (a NaN residual
    # fails) and its maximum over the verified rows.
    failing = {name: verified & ~(col <= tol.eps_mem) for name, col in res.items()}
    if verified.any():
        tops = [float(col[verified].max()) for col in res.values()]
        # A NaN maximum of one check makes the block's NaN, which max drops.
        report.max_verify_residual = max(report.max_verify_residual, float(np.max(tops)))
        by_check = report.max_residual_by_check
        for name, val in zip(res, tops):
            by_check[name] = max(by_check.get(name, 0.0), val)
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

    flagged = raises | unmixed
    for bad in failing.values():
        flagged |= bad
    for i in np.flatnonzero(flagged).tolist():
        zi = _triple_at(z, i)
        if raises[i]:
            try:
                decompose(zi, p, kind, tol)
            except DecompositionError as exc:
                report.record_failure("decompose", zi, f"decomposition raised: {exc}")
                continue
            raise RuntimeError(f"the block kernel left a point decompose splits: {zi.to_json()}")
        names = [name for name, bad in failing.items() if bad[i]]
        if names:
            report.record_failure("decompose", zi, "verification failed: " + ", ".join(names))
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
