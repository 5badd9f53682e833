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

a plane constraint on u2, intersected with the s-sphere: a circle through
u1, which satisfies the constraint.  A turn about the plane's unit normal
nhat keeps |u| and u . nhat, so the circle is the set of turns of u1 about
nhat, and u2 is u1 turned by the drawn angle (Rodrigues' formula): uniform
on the circle.  nhat is along B1 x B2, or the z axis where B2 = +-B1, and
there every u2 on the sphere satisfies the condition.  The stationary
incompressible cone adds the plane (u1 - u2) . (E1 - E2) = 0, i.e.
u2 . n2 = u1 . n2 with n2 = u1 x B2 + E1, which u1 also satisfies.  Its
other point on the circle is u1 mirrored across span{nhat, n2}, in closed
form; where n2 is along nhat the whole circle lies in that plane, and u2
keeps the drawn turn.

All randomness comes from a named 64-bit generator (PCG64) seeded by
numpy's SeedSequence(seed, spawn_key=(key,)): key 1 (HULL_KEY) for hull
points, key 0 for every other sampler, so the campaign's two halves read
disjoint streams.  Every sampler reads a fixed number of draws per item (its
stride: 4 per constraint-set state, 8 per pair or mixture, and 12 per hull
point), and item i reads draws [stride i, stride (i + 1)) of its
stream and no others.  Each drawn angle 2 pi w costs one cosine: its sine
is the signed square root of (1 - cos)(1 + cos), in _circle.

Samplers and campaign run in blocks of BLOCK rows, one Generator.random
call per block, and every block is a state of component columns: a
(B, u, E) triple of float64 columns per state.  No kernel calls a libm
function row by row.  The blocks are built by functions, mapped over the
draws, and each campaign loop drops its block before it asks for the next,
so one block's columns are alive at a time and the campaign's memory is a
few dozen columns of BLOCK rows whatever its count.

Both halves of the campaign run through one function, _share, which folds
a contiguous run of one half's blocks into a report of its own.  The
mixture half runs on every CPU the process may use: its blocks are cut into
equal, contiguous shares, one per CPU, and each share after the first runs
in a forked child, bound to a CPU of its own, which advances its own copy of
the stream to its first item, folds its blocks into a partial report and
sends it back pickled down a pipe, while the parent runs the first share and
the hull half, one run from point 0.  The parent merges the partial reports
in point order and raises the error a serial run would raise, and only it:
a share that raised in its child runs again in the parent, which raises its
error.  It forks only from a process that runs a single thread (numpy's
OpenBLAS pool is threads unless OPENBLAS_NUM_THREADS=1, which verify-hull
sets), and only where each share holds MIN_SHARE_BLOCKS blocks; elsewhere,
and where a pipe or a process cannot be made, _share runs in-process.  No
child outlives its campaign.  A spawned worker would import numpy afresh, in
about 90 ms, more than a 100k campaign takes; a forked one starts in 2.6 ms.

No output depends on BLOCK or on the number of workers: every kernel is
elementwise, and the report is a table of counts, maxima (one fold,
HullCheckReport.fold: a NaN residual, which fails its point, also drops its
block's maximum of that check) and a failure list in point order.
The campaign's membership, decomposition and verification kernels are the
per-point ones, run on numpy columns in the same operations, in the same
order, as a single point, so its reports are those of the per-point
functions bit for bit; it checks nothing they do not.
Rows become Triples only at the edge.  A Triple is itself the (B, u, E)
state of float component triples the kernels take, and rows become them
unchecked, straight from the columns (_triples): each field's Vec3s from
its component lists, a slice of rows at a time in the public samplers
(_items).  The campaign records a block's failing rows with one call
(HullCheckReport.record), which counts them all and builds a Triple only
for the records the report has room for, one row at a time (_triple_at);
the rows the block kernel finds outside the set, on which decompose runs,
are gathered and become Triples in one pass.

This module is where numpy comes in: core and laminate import none, so the
per-point API loads without it.  _COLUMNS is the column view of core's
kernels, and the block decomposition (_decompose_block) lives here, next to
the campaign that calls it, running laminate's one split, _split.
"""

from __future__ import annotations

import functools
import json
import math
import os
import pickle
from collections import namedtuple
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
    _FLOATS,
    _Math,
    _amplitude_gaps,
    _checked_make,
    _cone_residual,
    _cross,
    _dot,
    _frame,
    _g2_value,
    _perpendicular,
    _separation_flags,
    _tuple_new,
    _unit,
    _vec,
)
from .laminate import NotInHullError, _endpoints, _residuals, _split, decompose


def _patch(mask, value, fn, *args):
    """The component triple value, its columns overwritten with fn(*args) on the
    rows where mask holds; fn runs on those rows of the component triples args only."""
    at = np.flatnonzero(mask)
    if len(at):
        for x, y in zip(value, fn(*(tuple(c[at] for c in a) for a in args))):
            x[at] = y
    return value


# core._Math on numpy columns: the functions core's kernels, written once on
# component triples, take from a block of columns (core._FLOATS is the view
# on the floats of one point).
_COLUMNS = _Math(np.sqrt, np.where, lambda x: np.where(x > 0.0, x, 0.0),
                 lambda n, d: np.divide(n, d, out=np.zeros_like(d), where=d != 0.0), _patch)

TWO_PI = 2.0 * math.pi

# Rows per block of the samplers and the campaign.  At 1024 rows each numpy
# call spent about as long on dispatch and allocation as on arithmetic.  A
# 100k + 10k campaign at r = s = 1 (2 vCPUs, 2 MiB L2 per core) took 66 ms
# at 1024 rows, 55 ms at 3072 and 60 ms at 4096; the pair kernel 40, 35 and
# 38 ms of it.  Its peak is about 62 live columns of BLOCK doubles (one
# block's: no frame keeps a block while the next is built), 1.5 MB at 3072
# rows, inside L2; at 4096 rows, 2.0 MB, it is not.
BLOCK = 3072

# Mixture blocks each share of a forked campaign holds at the least.  On
# 2 vCPUs with Python 3.11.7, forking a child, piping an empty share's report
# back and reaping it took 2.6 ms, and one mixture block 0.8-1.0 ms.  Run as
# two shares against one, campaigns of 3 blocks per share were slower
# (8.3 -> 11.0 ms) and of 4 faster (15.0 -> 12.7 ms, in 59 of 80 pairs).
MIN_SHARE_BLOCKS = 4

# Revision of the sample streams a report was drawn from.  Version 3 reads a
# fixed number of draws per item and takes core._perpendicular's directions;
# version 4 turns u1 about nhat for the pair's u2, and on the stationary
# incompressible cone takes the second plane's root other than u1; version 5
# takes one cosine per drawn angle, its sine by _circle, and reads the hull
# points on spawn key HULL_KEY; version 6 draws a hull point's radii as the
# largest of three draws, not by a cube root (12 draws per hull point).
STREAM_VERSION = 6


class SampleConfig(namedtuple("SampleConfig", "seed count params kind")):
    """Deterministic sampling campaign: same config, same stream, bit for bit.

    A validated record, so _replace checks too; its field count shadows
    tuple's count method.
    """

    __slots__ = ()
    _make = _checked_make

    def __new__(cls, seed: int, count: int, params: HullParams,
                kind: ConeKind = ConeKind.NONSTATIONARY):
        for name, v in (("seed", seed), ("count", count)):
            if not (v >= 0 and v % 1 == 0):
                raise ValueError(f"{name} must be a nonnegative integer, got {v}")
        return _tuple_new(cls, (int(seed), int(count), params, kind))


# The spawn key of the hull points' stream; every other sampler reads key 0,
# so a campaign's two halves read disjoint streams.
HULL_KEY = 1


def _generator(cfg: SampleConfig, key: int = 0) -> Generator:
    """The uniform stream of cfg on spawn key key: PCG64 seeded by
    SeedSequence(seed, spawn_key=(key,))."""
    return Generator(PCG64(SeedSequence(cfg.seed, spawn_key=(key,))))


def _draws(gen: Generator, count: int, stride: int) -> Iterator[tuple[int, np.ndarray]]:
    """(start, w) for blocks of count items of stride draws each: w holds the
    draws of items start, start + 1, ..., one row per item, read with one
    random call; a double costs one 64-bit output of the stream, so item i
    reads draws [stride i, stride (i + 1)) however the blocks fall."""
    for start in range(0, count, BLOCK):
        n = min(BLOCK, count - start)
        yield start, gen.random(n * stride).reshape(n, stride)


def _circle(w: np.ndarray):
    """(cos, sin) of the angles 2 pi w of draws w in [0, 1): columns.  One
    cosine per angle; the sine is the signed square root of (1 - c)(1 + c),
    positive for w < 1/2, so its only error is the cosine's rounding, and
    c^2 + s^2 = 1 to rounding, as with a libm sine."""
    c = np.cos(TWO_PI * w)
    return c, np.copysign(np.sqrt((1.0 - c) * (1.0 + c)), 0.5 - w)


def _sphere(t: np.ndarray, w: np.ndarray, radius=None):
    """Points on the unit sphere, or on spheres of the given radii, uniform from
    the draws t (height) and w (azimuth): component columns.  |z| <= 1, so
    1 - z^2 >= 0 in floats."""
    z = 2.0 * t - 1.0
    rho = np.sqrt(1.0 - z * z)
    if radius is not None:
        rho, z = radius * rho, radius * z
    c, s = _circle(w)
    return rho * c, rho * s, z


def _ball(w: np.ndarray, radius: float):
    """Uniform-volume points in the ball of the given radius from five draws
    per row (three for the radius, then two for the sphere): component
    columns.  The radius is the given one times the largest of three draws,
    whose law P(max <= t) = t^3 is that of a uniform point's distance from
    the centre; a comparison and a product are exact or correctly rounded,
    so no radius depends on a libm (numpy's cbrt differs between its SIMD
    kernels)."""
    return _sphere(w[:, 3], w[:, 4], radius * np.maximum(np.maximum(w[:, 0], w[:, 1]), w[:, 2]))


_triple = functools.partial(_tuple_new, Triple)


def _triples(z, start: int, stop: int) -> Iterator[Triple]:
    """The Triples of rows [start, stop) of a (B, u, E) state of component
    columns: each field's Vec3s straight from its component lists."""
    return map(_triple, zip(*(map(_vec, zip(*[x[start:stop].tolist() for x in v])) for v in z)))


def _items(blocks: Iterator[tuple], pairs: bool = False) -> Iterator:
    """The Triples of the rows of a sequence of blocks of (B, u, E) states of
    component columns or, with pairs, the pairs of Triples of the rows of
    blocks (z1, z2, ...) of pairs.  The floats are made 256 rows at a time,
    as a whole block of them would outweigh its columns fourfold, and each
    block is dropped before the next one is built."""
    for z in blocks:
        for i in range(0, len(z[0][0][0] if pairs else z[0][0]), 256):
            if pairs:
                yield from zip(_triples(z[0], i, i + 256), _triples(z[1], i, i + 256))
            else:
                yield from _triples(z, i, i + 256)
        del z


def _triple_at(z, i: int) -> Triple:
    """The Triple of row i of a (B, u, E) state of component columns."""
    return next(_triples(z, i, i + 1))


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
    return _items(_K_blocks(_generator(cfg), cfg))


def _pair_block(w: np.ndarray, p: HullParams, restricts_u: bool):
    """One pair per row of draws (columns 0-6 of w).

    The pair is built on the unit spheres, where every threshold below is
    dimensionless, then scaled once (B by r, u by s, E by rs), so the same
    draws give the same normalised pair at every radius pair.  Draws: B1 (2),
    u1 (2), B2 (2), then the turn angle about nhat (which the stationary
    incompressible cone reads only where the whole circle satisfies its
    second plane).  Returns the states z1 and z2 as (B, u, E) component
    columns; raises RuntimeError if a pair is off the cone (_check_cone).
    Each stage is a function, so its intermediates die when it returns.
    """
    with np.errstate(all="ignore"):
        b1 = _sphere(w[:, 0], w[:, 1])
        u1 = _sphere(w[:, 2], w[:, 3])
        b2 = _sphere(w[:, 4], w[:, 5])
        e1 = _cross(b1, u1)
        u2 = _circle_point(b1, u1, b2, e1, w[:, 6], restricts_u)
        e2 = _cross(b2, u2)
        z1, z2 = (b1, u1, e1), (b2, u2, e2)
        _check_cone(z1, z2, restricts_u)
    # Scaled in place: every column is this function's own.  A factor of 1.0
    # leaves the bits as they are.
    for z in (z1, z2):
        for v, k in zip(z, (p.r, p.s, p.r * p.s)):
            if k != 1.0:
                for x in v:
                    np.multiply(x, k, out=x)
    return z1, z2


def _circle_point(b1, u1, b2, e1, draw: np.ndarray, restricts_u: bool):
    """u2: u1 turned about the unit normal nhat of the cone condition's plane
    by the drawn angle 2 pi draw, or, on the stationary incompressible cone,
    the circle's other point on the second plane u2 . n2 = u1 . n2, with
    n2 = u1 x B2 + E1: component columns."""
    nh = _unit(_cross(b1, b2), _COLUMNS)
    if not restricts_u:
        return _turn(u1, nh, draw)
    # The mirror of u1 across span{nh, n2}, along m = nh x n2, keeps |u|,
    # u . nh and u . n2.  n2's part across nh is formed first, so m stays
    # across nh when |m| << |n2|.
    ub = _cross(u1, b2)
    n2 = tuple(ub[i] + e1[i] for i in range(3))
    k = _dot(n2, nh)
    m = _cross(nh, tuple(n2[i] - k * nh[i] for i in range(3)))
    mm = _dot(m, m)
    f = 2.0 * _dot(u1, m) / mm
    u2 = tuple(u1[i] - f * m[i] for i in range(3))
    # A circle that lies in the second plane keeps the drawn turn.
    return _patch(np.sqrt(mm) <= 1e-12 * np.sqrt(_dot(n2, n2)), u2,
                  lambda u, n, w: _turn(u, n, *w), u1, nh, (draw,))


def _turn(u1, nh, draw: np.ndarray):
    """u1 turned about the unit axis nh by the angle 2 pi draw (Rodrigues'
    formula), its cosine and sine from _circle: component columns."""
    c, s = _circle(draw)
    hc = _dot(u1, nh) * (1.0 - c)
    t = _cross(nh, u1)
    return tuple(u1[i] * c + t[i] * s + nh[i] * hc for i in range(3))


def _check_cone(z1, z2, restricts_u: bool):
    """Raise RuntimeError if a unit pair z1, z2 is off the cone: a residual
    (_pair_residual) above 1e-10, or NaN, which rounding alone never produces.

    The residual of a dot product a = x . y is |a| / (1 + |x||y|), at most
    |a| in floats too, as its denominator is at least 1.  So a row whose dot
    products are all within 1e-10 passes, and the residual is formed only on
    the rest (NaN rows among them), by the one formula: the failing row and
    its value are those of a residual formed on every row.
    """
    (b1, u1, e1), (b2, u2, e2) = z1, z2
    de = tuple(e1[i] - e2[i] for i in range(3))
    near = np.abs(_dot(tuple(b1[i] - b2[i] for i in range(3)), de)) <= 1e-10
    if restricts_u:
        near &= np.abs(_dot(tuple(u1[i] - u2[i] for i in range(3)), de)) <= 1e-10
    at = np.flatnonzero(~near)
    if len(at):
        res = _pair_residual(*(tuple(tuple(x[at] for x in v) for v in z) for z in (z1, z2)),
                             restricts_u)
        bad = np.flatnonzero(~(res <= 1e-10))
        if len(bad):
            raise RuntimeError("constructed pair violates the cone: residual "
                               f"{float(res[bad[0]])}")


def _pair_residual(z1, z2, restricts_u: bool) -> np.ndarray:
    """The cone residual of the unit pairs z1, z2: (B, E), and the larger of it
    and (u, E)'s on the stationary incompressible cone."""
    (b1, u1, e1), (b2, u2, e2) = z1, z2
    db = tuple(b1[i] - b2[i] for i in range(3))
    de = tuple(e1[i] - e2[i] for i in range(3))
    de_len = np.sqrt(_dot(de, de))
    res = _cone_residual(_dot(db, de), np.sqrt(_dot(db, db)), de_len, 1.0, _COLUMNS)
    if restricts_u:
        du = tuple(u1[i] - u2[i] for i in range(3))
        res2 = _cone_residual(_dot(du, de), np.sqrt(_dot(du, du)), de_len, 1.0, _COLUMNS)
        res = np.where(res2 > res, res2, res)
    return res


def _pair_blocks(gen: Generator, cfg: SampleConfig) -> Iterator[tuple]:
    """cfg.count pairs as blocks (z1, z2, lam): the states as (B, u, E)
    component columns and the mixture weights, a column.  A pair reads 7
    draws and its weight the 8th, so the pair sampler yields the pairs the
    laminate sampler mixes.  Raises RuntimeError if a constructed pair is
    off the cone (_check_cone).
    """
    p, restricts_u = cfg.params, cfg.kind.restricts_u

    def pairs(_, w):
        return (*_pair_block(w, p, restricts_u), w[:, 7])

    return starmap(pairs, _draws(gen, cfg.count, 8))


def _mixture(z1, z2, lam):
    """The mixture lam*z1 + (1-lam)*z2 of two (B, u, E) states of component columns."""
    mu = 1.0 - lam
    return tuple(tuple(lam * a + mu * b for a, b in zip(v1, v2)) for v1, v2 in zip(z1, z2))


def _mixture_blocks(gen: Generator, cfg: SampleConfig) -> Iterator[tuple]:
    """cfg.count mixtures lam*z1 + (1-lam)*z2 as blocks of (B, u, E) component
    columns."""
    return starmap(_mixture, _pair_blocks(gen, cfg))


def sample_lambda_pair(cfg: SampleConfig) -> Iterator[tuple[Triple, Triple]]:
    """Constraint-set pairs whose difference lies in the cone for cfg.kind: the
    pairs sample_first_laminate(cfg) mixes."""
    return _items(_pair_blocks(_generator(cfg), cfg), pairs=True)


def sample_first_laminate(cfg: SampleConfig) -> Iterator[Triple]:
    """Convex combinations lam*z1 + (1-lam)*z2 of cone-compatible pairs."""
    return _items(_mixture_blocks(_generator(cfg), cfg))


def _excess_directions(B, phi: np.ndarray):
    """Unit directions (columns) perpendicular to B, at the drawn angle 2 pi phi
    in a frame of B (its cosine and sine from _circle): uniform on that circle,
    since the frame is a function of B."""
    with np.errstate(all="ignore"):
        _, p1, p2 = _frame(B, _COLUMNS)
    c, s = _circle(phi)
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
    gb, gu = _amplitude_gaps(_dot(B, B), _dot(u, u), p, _COLUMNS)
    f = delta * np.sqrt(gb * gu)
    bxu = _cross(B, u)
    return B, u, tuple(bxu[i] + e[i] * f for i in range(3))


def _hull_blocks(gen: Generator, cfg: SampleConfig) -> Iterator[tuple]:
    """cfg.count points of the relaxed set as (B, u, E) column blocks.

    Draws per point: 5 for B and 5 for u (_ball); then 1 for the excess
    direction, a sign coin (stationary incompressible kind) or an angle
    about B (the other kinds); then 1 for delta.
    """
    p, restricts_u = cfg.params, cfg.kind.restricts_u

    def points(start, w):
        B = _ball(w[:, 0:5], p.r)
        u = _ball(w[:, 5:10], p.s)
        if restricts_u:
            e = _restricted_directions(B, u, w[:, 10])
        else:
            e = _excess_directions(B, w[:, 10])
        return _hull_points(B, u, e, w[:, 11], start, p)

    return starmap(points, _draws(gen, cfg.count, 12))


def sample_hull(cfg: SampleConfig) -> Iterator[Triple]:
    """Points of the closed-form relaxed set: amplitudes inside the balls,
    E = B x u plus a fraction delta of the sharp excess bound.

    delta is uniform on [0, 1]; every 100th sample forces delta = 1 so the
    excess boundary is exercised with positive frequency.
    """
    return _items(_hull_blocks(_generator(cfg, HULL_KEY), cfg))


class HullCheckReport:
    """Outcome of a two-sided campaign; serializes deterministically.

    The one mutable record, a table the campaign adds to as it goes: checked
    and failed count the points of each half ("laminate", "decompose"),
    maxima maps (half, check) to that check's largest residual, and failures
    holds the first MAX_RECORDED_FAILURES failing points' records, one per
    point, in point order.  Every other figure of the report is read from
    the table.
    """

    MAX_RECORDED_FAILURES = 20

    def __init__(self, seed: int, kind: str, r: float, s: float):
        self.seed, self.kind, self.r, self.s = seed, kind, r, s
        self.checked = {"laminate": 0, "decompose": 0}
        self.failed = {"laminate": 0, "decompose": 0}
        self.maxima = {}
        self.failures = []

    def fold(self, key: tuple[str, str], top: float):
        """Fold top, a largest residual of the check key = (half, check), into
        its maximum: the larger of the two, and a NaN top leaves it as it was."""
        self.maxima[key] = max(self.maxima.get(key, 0.0), top)

    @property
    def failure_count(self) -> int:
        return sum(self.failed.values())

    @property
    def max_residual_by_check(self) -> dict:
        return {check: top for (half, check), top in self.maxima.items() if half == "decompose"}

    @property
    def max_verify_residual(self) -> float:
        return max(self.max_residual_by_check.values(), default=0.0)

    @property
    def max_mixing_orthogonality(self) -> float | None:
        return self.maxima.get(("decompose", "mixing_orthogonality"))

    @property
    def max_u_orthogonality(self) -> float | None:
        return self.maxima.get(("laminate", "u_orthogonality"))

    @property
    def max_residual(self) -> float:
        return max(self.maxima.values(), default=0.0)

    def record(self, half: str, rows: list, record):
        """Count the failing points rows of half, in point order, and keep the
        records of the first of them the report has room for: record(i), the
        (Triple, reason) of row i, is called for those rows only."""
        self.failed[half] += len(rows)
        for i in rows[:self.MAX_RECORDED_FAILURES - len(self.failures)]:
            z, reason = record(i)
            self.failures.append({"side": half, "triple": z.to_json_dict(), "reason": reason})

    def merge(self, later: HullCheckReport):
        """Fold in the report of the points that follow this one's, as if this
        report had gone on to check them: counts add, maxima fold, and the
        later failures follow this one's up to MAX_RECORDED_FAILURES."""
        for mine, theirs in ((self.checked, later.checked), (self.failed, later.failed)):
            for half, n in theirs.items():
                mine[half] += n
        for key, top in later.maxima.items():
            self.fold(key, top)
        self.failures = (self.failures + later.failures)[:self.MAX_RECORDED_FAILURES]

    def to_json_dict(self) -> dict:
        d = {
            "seed": self.seed,
            "kind": self.kind,
            "r": self.r,
            "s": self.s,
            "checked": sum(self.checked.values()),
            "checked_detail": dict(self.checked),
            "failures": self.failures,
            "failure_count": self.failure_count,
            "max_residual": self.max_residual,
            "max_verify_residual": self.max_verify_residual,
            "max_residual_by_check": dict(sorted(self.max_residual_by_check.items())),
            "stream_version": STREAM_VERSION,
        }
        for name in ("max_u_orthogonality", "max_mixing_orthogonality"):
            if (top := getattr(self, name)) is not None:
                d[name] = top
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


def two_sided_hull_check(cfg: SampleConfig, tol: Tolerances | None = None) -> HullCheckReport:
    """Run the inner (laminate -> membership) and surjective (membership ->
    decomposition) checks and aggregate the outcome.

    cfg.count combinations are generated for the inner half; cfg.count // 10
    points are sampled from the closed-form set for the surjective half, on
    their own stream: sample_hull's points for that count.  Both halves run
    at tol: a mixture fails exactly when in_hull rejects it, a hull point
    when decompose raises or verify_decomposition fails.  They run in blocks
    of BLOCK rows and report exactly what the per-point functions would,
    failures in point order.  The mixture half's shares after the first run
    in forked children (_shares); the report, and the error raised, are the
    serial run's.
    """
    tol = tol or DEFAULT_TOLERANCES
    (first, *rest), cpus = _shares(cfg.count)
    children = {}  # share index in rest -> (pid, read end of its pipe), until reaped
    try:
        for k, share in enumerate(rest):
            child = _fork_share(cfg, tol, share, cpus[k] if k < len(cpus) else None)
            if child is not None:
                children[k] = child
        report = _share(cfg, tol, "laminate", first)
        try:
            hull = _share(cfg, tol, "decompose", (0, cfg.count // 10))
        except Exception as exc:  # a serial run raises it only after every mixture
            hull = exc
        for k, share in enumerate(rest):
            part = _collect(children, k) if k in children else None
            # A share that raised in its child runs here, to raise the serial run's error.
            report.merge(_share(cfg, tol, "laminate", share) if part is None else part)
        if isinstance(hull, Exception):
            raise hull
        report.merge(hull)
    finally:
        # Only on an error, an interrupt included, is a child left here.
        if children:
            import signal  # on this path alone: its enums add 70 kB to the peak memory
            for pid, pipe in children.values():
                pipe.close()
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    return report


def _shares(count: int) -> tuple[list[tuple[int, int]], list[int]]:
    """(shares, cpus): the mixture ranges [start, stop) of a campaign of count
    mixtures, one per process, and the CPUs for the children that run the
    shares after the first.

    The shares are equal, contiguous runs of whole blocks, one per CPU the
    process may run on, as long as each holds MIN_SHARE_BLOCKS blocks and the
    process can fork safely: where os.fork exists and the process runs a
    single thread, so no other thread can hold a lock the child would copy.
    Otherwise there is one share, [0, count).  The children's CPUs are those
    the process may use other than the one it runs on: a host that does not
    balance load across its CPUs (a cpuset with sched_load_balance 0, as on
    the 2-vCPU host of MIN_SHARE_BLOCKS's figures) keeps an unbound child on
    its parent's CPU, where the campaign took 41 -> 47 ms forked, not 43 -> 30.
    """
    blocks = -(-count // BLOCK)
    n, cpus = 1, []
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        allowed = sorted(os.sched_getaffinity(0))
        n = max(1, min(len(allowed), blocks // MIN_SHARE_BLOCKS))
        if n > 1:
            try:
                single = len(os.listdir("/proc/self/task")) == 1
                with open("/proc/self/stat", "rb") as stat:  # field 39: the CPU it runs on
                    here = int(stat.read().rsplit(b")", 1)[1].split()[36])
            except (OSError, ValueError, IndexError):  # no /proc to count the threads in
                single = False
            if single:
                cpus = [cpu for cpu in allowed if cpu != here]
            else:
                n = 1
    edges = [BLOCK * (blocks * k // n) for k in range(n + 1)]
    return [(start, min(stop, count)) for start, stop in zip(edges, edges[1:])], cpus


def _share(cfg: SampleConfig, tol: Tolerances, half: str,
           run: tuple[int, int]) -> HullCheckReport:
    """The report of points [start, stop) = run of half of cfg's campaign:
    mixtures ("laminate") on the key-0 stream, or hull points ("decompose")
    on the HULL_KEY stream, start a multiple of BLOCK.  The stream is
    advanced by the draws of each point before start (8 per mixture, 12 per
    hull point; one 64-bit output per draw), so its blocks are those of the
    serial run.  A hull point's every-100th delta = 1 rule (_hull_points)
    reads its index in the run, so the hull half runs as one run from 0."""
    p, kind = cfg.params, cfg.kind
    start, stop = run
    report = HullCheckReport(cfg.seed, kind.label, p.r, p.s)
    # Looked up at each call, so each stage can be replaced by name.
    if half == "laminate":
        blocks, stride, key, check = _mixture_blocks, 8, 0, _check_mixtures
    else:
        blocks, stride, key, check = _hull_blocks, 12, HULL_KEY, _check_decompositions
    gen = _generator(cfg, key)
    if start:
        gen.bit_generator.advance(stride * start)
    # Each loop drops its block before the next one is drawn and built, so
    # one block's columns are alive at a time.
    for z in blocks(gen, cfg._replace(count=stop - start)):
        check(report, z, p, kind, tol)
        del z
    return report


def _fork_share(cfg: SampleConfig, tol: Tolerances, share: tuple[int, int], cpu: int | None):
    """(pid, read end) of a forked child, bound to cpu where it can be, that
    runs _share for the mixtures of share and writes the pickled report down a pipe,
    or None if the share raised; None where no pipe or process can be made (a
    process limit, say), and the caller runs the share itself.  The child
    leaves by os._exit, whatever happens, so it never returns into the
    caller's code or flushes the parent's buffers, and it exits 0 only once
    its result is written."""
    try:
        rfd, wfd = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        os.close(rfd)
        os.close(wfd)
        return None
    if pid == 0:
        status = 1
        try:
            os.close(rfd)
            if cpu is not None:
                try:
                    os.sched_setaffinity(0, (cpu,))
                except OSError:  # a CPU the process may not use: left to the scheduler
                    pass
            try:
                report = _share(cfg, tol, "laminate", share)
            except Exception:  # the parent runs the share again for its error
                report = None
            with open(wfd, "wb") as pipe:
                pickle.dump(report, pipe)
            status = 0
        finally:
            os._exit(status)
    os.close(wfd)
    return pid, open(rfd, "rb")


def _collect(children: dict, k: int) -> HullCheckReport | None:
    """The report that child k of children sent, None if its share raised,
    once the child is reaped and out of children; RuntimeError if it exited
    without a result."""
    pid, pipe = children[k]
    with pipe:
        data = pipe.read()
    status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    del children[k]
    if status != 0:
        raise RuntimeError(f"campaign worker {pid} exited with status {status} "
                           "without a report")
    return pickle.loads(data)


def _check_mixtures(report: HullCheckReport, z, p: HullParams, kind: ConeKind,
                    tol: Tolerances):
    """Check a block z of mixtures, (B, u, E) columns, for membership at tol
    into the report.  On the restricted cone the kernel's g3 is the one u . E
    test; the u . E residual is only folded into ("laminate", "u_orthogonality")."""
    report.checked["laminate"] += len(z[0][0])
    g1, g3, g2, (_, ue, _, _, _), (_, nu, ne, _, _, _) = _separation_flags(
        *z, p, kind, tol.eps_mem, _COLUMNS)
    if kind.restricts_u:
        # u . E's residual on the normalised triple (B/r, u/s, E/(rs)), unit r s^2,
        # from the kernel's own u . E, |u| and |E|.
        report.fold(("laminate", "u_orthogonality"),
                    float(_cone_residual(ue, nu, ne, p.r * p.s * p.s, _COLUMNS).max()))
    report.record("laminate", np.flatnonzero(g1 | g3 | g2).tolist(),
                  lambda i: (_triple_at(z, i), "combination fails closed-form membership"))


def _decompose_block(B, u, E, p: HullParams, kind: ConeKind, tol: Tolerances):
    """decompose on a block of targets (B, u, E), columns.

    Returns (lam, z1, z2, outside): the weights and the endpoint states (as
    columns), decompose's bit for bit, and the mask of the rows outside the
    relaxed set, the only rows decompose raises on.  lam, z1 and z2 are
    meaningless on those rows.  laminate._split returns only the weights and
    perturbations, so its working-plane columns die before the endpoints are
    built.
    """
    with np.errstate(all="ignore"):
        g1, g3, g2, _, (nb, _, _, gb, gu, excess) = _separation_flags(
            B, u, E, p, kind, tol.eps_mem, _COLUMNS)
        lam, bbar, ubar = _split(B, u, nb, gb, gu, excess, p, kind, _COLUMNS)
        z1, z2 = _endpoints(B, u, bbar, ubar, lam)
    return lam, z1, z2, g1 | g3 | g2


def _check_decompositions(report: HullCheckReport, z, p: HullParams,
                          kind: ConeKind, tol: Tolerances):
    """Decompose and verify a block z of hull points, (B, u, E) columns, into the report.

    The block kernel splits every point decompose splits, and the block is
    verified as one, by verify_decomposition's residuals and nothing else;
    decompose itself runs only on the points outside the relaxed set, for
    its error message.
    """
    report.checked["decompose"] += len(z[0][0])
    lam, z1, z2, raises = _decompose_block(*z, p, kind, tol)
    verified = ~raises

    with np.errstate(all="ignore"):  # the rows outside hold no endpoints
        res = _residuals(lam, z1, z2, z, p, kind, _COLUMNS)
    # Folded one check at a time: its maximum over the verified rows (every
    # row, without a copy, unless a point is outside) and, only where that
    # maximum is above eps_mem or NaN, the verified rows it fails (a NaN
    # residual fails).
    failing = {}
    if verified.any():
        rows = slice(None) if verified.all() else verified
        for name, col in res.items():
            top = float(col[rows].max())
            # A NaN maximum, of a block with a failing point, leaves the fold as it was.
            report.fold(("decompose", name), top)
            if not top <= tol.eps_mem:
                failing[name] = verified & ~(col <= tol.eps_mem)

    # decompose runs on every row that raises, to check that the block kernel
    # agrees, on Triples gathered from those rows in one pass; a verification
    # failure's Triple is built only for a record the report keeps.
    raised = {}  # row -> the record of a row decompose raises on
    if raises.any():
        at = np.flatnonzero(raises)
        for i, zi in zip(at.tolist(), _triples([[x[at] for x in v] for v in z], 0, len(at))):
            try:
                decompose(zi, p, kind, tol)
            except NotInHullError as exc:
                raised[i] = zi, f"decomposition raised: {exc}"
                continue
            raise RuntimeError(f"the block kernel left a point decompose splits: {zi.to_json()}")
    report.record("decompose",
                  np.flatnonzero(np.logical_or.reduce([raises, *failing.values()])).tolist(),
                  lambda i: raised.get(i) or (_triple_at(z, i), "verification failed: " + ", ".join(
                      name for name, bad in failing.items() if bad[i])))


CSV_HEADER = "Bx,By,Bz,ux,uy,uz,Ex,Ey,Ez,in_hull,g1,g2,g3"


def _sample_row(z: Triple, p: HullParams, kind: ConeKind, tol: Tolerances | None) -> dict:
    """The per-sample verdict and separating-function values of a CSV or JSON row:
    in_hull's, eval_g1's, eval_g2's and eval_g3's, from one membership kernel
    pass, plus u . E off the stationary incompressible cone, where the kernel
    forms none."""
    B, u, E = z
    g1, g3, g2, (be, ue, nb2, nu2, w2), _ = _separation_flags(
        B, u, E, p, kind, (tol or DEFAULT_TOLERANCES).eps_mem, _FLOATS)
    return {"in_hull": not (g1 or g3 or g2), "g1": be, "g2": _g2_value(nb2, nu2, w2, p),
            "g3": _dot(u, E) if ue is None else ue}


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
