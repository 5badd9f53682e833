"""Plane-wave solutions of the decoupled conservation laws, grid residuals
and staircase averaging.

A plane wave h(x . xi_x + t xi_t) (Bbar, ubar, Ebar) solves

    div B = 0,   dt B + curl E = 0

for every smooth profile h exactly when

    Bbar . xi_x = 0   and   xi_t Bbar + xi_x x Ebar = 0.

``wave_vector_for`` constructs such a frequency for every admissible cone
direction; ``grid_residual`` verifies the construction the pedestrian way,
with centred differences on a periodic grid, including the second-order
convergence of the truncation error; ``staircase_average`` realises mixed
states as averages of fast two-state oscillations and measures the
first-order decay of the averaging error in the oscillation count.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple

import numpy as np

from .core import (
    ConeKind,
    Tolerances,
    Triple,
    Vec3,
    _checked_make,
    _cross,
    _dot,
    _float,
    _from_parts,
    _norm_rs,
    _tuple_new,
    _unit_scaled,
    _vec,
    _wave_cone_terms,
    unit_perpendicular_to_all,
)
from .laminate import Decomposition

TWO_PI = 2.0 * math.pi
# A frequency within this of an integer counts as a lattice frequency.
LATTICE_TOL = 1e-9
# The plane-wave conditions hold within RESIDUAL_SLACK (1 + |xi| |direction|).
RESIDUAL_SLACK = 1e-10
# round_to_lattice puts the largest spatial component at 1..LATTICE_MAX_SCALE.
LATTICE_MAX_SCALE = 64


class NotInConeError(ValueError):
    """The given direction admits no compatible plane wave."""


class LatticeError(ValueError):
    """No integer frequency vector approximates the wave vector closely enough."""


class WaveVector(namedtuple("WaveVector", "xi_x xi_t")):
    """Space-time frequency (xi_x, xi_t) of a plane wave; xi_x must be finite
    and nonzero, xi_t finite.  A validated record: _replace checks too.

    xi_x is zero when each of its components is: a frequency as small as
    (1e-200, 0, 0), whose square underflows, is a valid one."""

    __slots__ = ()
    _make = _checked_make

    def __new__(cls, xi_x: Vec3, xi_t: float):
        if not isinstance(xi_x, Vec3):
            raise TypeError("xi_x must be a Vec3")
        isfinite = math.isfinite
        x, y, z = xi_x
        if not (isfinite(x) and isfinite(y) and isfinite(z)):
            raise ValueError(f"non-finite spatial frequency {tuple(xi_x)}")
        if x == 0.0 and y == 0.0 and z == 0.0:
            raise ValueError("spatial frequency xi_x must be nonzero")
        xi_t = _float(xi_t, "temporal frequency xi_t")
        if not isfinite(xi_t):
            raise ValueError(f"non-finite temporal frequency {xi_t}")
        return _tuple_new(cls, (xi_x, xi_t))

    def norm(self) -> float:
        (x, y, z), t = self
        return math.sqrt(x * x + y * y + z * z + t * t)

    def is_lattice(self) -> bool:
        """True when all frequencies are integers (so a 2*pi box is periodic) and
        xi_x does not round to zero, as (1e-10, 0, 0) would."""
        x, y, z = self.xi_x
        return (all(abs(v - round(v)) <= LATTICE_TOL for v in (x, y, z, self.xi_t))
                and (round(x), round(y), round(z)) != (0, 0, 0))

    def to_json_dict(self) -> dict:
        return {"xi_x": list(self.xi_x), "xi_t": self.xi_t}


def _whole(v) -> int | None:
    """int(v) where v is a finite whole number, else None."""
    try:
        i = int(v)
    except (OverflowError, ValueError):
        return None
    return i if i == v else None


class GridSpec(namedtuple("GridSpec", "n periods")):
    """Periodic evaluation grid: n points per axis spanning `periods` base
    periods of 2 pi, so the spacing is h = 2 pi periods / n.  A validated
    record: _replace checks too."""

    __slots__ = ()
    _make = _checked_make

    def __new__(cls, n: int, periods: int = 1):
        whole_n, whole_periods = _whole(n), _whole(periods)
        if whole_n is None or whole_n < 4 or whole_n % 2 != 0:
            raise ValueError("grid needs an even integer count of at least 4 points per axis, "
                             f"got {n}")
        if whole_periods is None or whole_periods < 1:
            raise ValueError(f"periods must be a positive integer, got {periods}")
        return _tuple_new(cls, (whole_n, whole_periods))

    @property
    def h(self) -> float:
        return TWO_PI * self.periods / self.n


def plane_wave_conditions(direction: Triple, xi: WaveVector,
                          kind: ConeKind = ConeKind.NONSTATIONARY) -> dict:
    """Absolute residuals of the algebraic plane-wave conditions.

    "gauss" is |Bbar . xi_x|, "faraday" is |xi_t Bbar + xi_x x Ebar| (with
    xi_t = 0 this is the curl-free condition of the stationary system), and
    incompressible kinds add "u_div" = |ubar . xi_x|.
    """
    return dict(zip(_CONDITIONS, _condition_residuals(direction, xi, kind)))


_CONDITIONS = ("gauss", "faraday", "u_div")


def _condition_residuals(direction, xi: WaveVector, kind: ConeKind) -> tuple:
    """The residuals of _CONDITIONS that `kind` has (u_div only on incompressible
    kinds) for a direction of (B, u, E) float component triples: the one
    implementation of the plane-wave conditions, |B . xi_x|,
    |xi_t B + xi_x x E| and |u . xi_x|."""
    (bx, by, bz), (ux, uy, uz), (ex, ey, ez) = direction
    (kx, ky, kz), xi_t = xi
    fx = bx * xi_t + (ky * ez - kz * ey)
    fy = by * xi_t + (kz * ex - kx * ez)
    fz = bz * xi_t + (kx * ey - ky * ex)
    res = (abs(bx * kx + by * ky + bz * kz), math.sqrt(fx * fx + fy * fy + fz * fz))
    return res + (abs(ux * kx + uy * ky + uz * kz),) if kind.incompressible else res


def _conditions_ok(direction, size: float, xi: WaveVector, kind: ConeKind) -> bool:
    """True when every plane-wave condition of `kind` holds for a direction of
    component triples, of norm `size`, within RESIDUAL_SLACK (1 + |xi| size)."""
    return max(_condition_residuals(direction, xi, kind)) <= (
        RESIDUAL_SLACK * (1.0 + xi.norm() * size))


def wave_vector_for(direction: Triple, kind: ConeKind = ConeKind.NONSTATIONARY,
                    tol: Tolerances | None = None,
                    a: float = 1.0, c: float = 1.0) -> WaveVector:
    """Construct a frequency whose plane wave solves the system for `kind`.

    Each branch chooses the spatial frequency xi_x; the time frequency
    follows from Faraday's relation (_time_frequency).  For the shared cone
    the construction works in the orthogonal frame {Ebar, Bbar, Ebar x Bbar}:
    xi_x = a Ebar + c (Ebar x Bbar) satisfies both conditions for any
    coefficients (a, c), with xi_t = -c |Ebar|^2.  The incompressible variant
    solves ubar . xi_x = 0 linearly for (a, c), falling back to the given
    defaults when the functional vanishes; in the degenerate branch Bbar = 0,
    Ebar != 0 the spatial frequency is forced parallel to Ebar, so
    ubar . xi_x = 0 is additionally satisfiable only when ubar is orthogonal
    to Ebar.  Ebar = 0 admits any unit xi_x perpendicular to Bbar (and to
    ubar for incompressible kinds).  On the stationary-incompressible cone
    Ebar and Bbar x ubar are both axes, and the longer one is taken, so that
    rounding noise in the other is never returned (Ebar where Bbar x ubar is
    zero).  A vector counts as zero when each of its components is, so a
    tiny Ebar whose square underflows still sets the axis.  Stationary kinds
    always return xi_t = 0.

    Raises NotInConeError when the direction is not in the cone for `kind`,
    and ValueError when (a, c) = (0, 0) would be used on a time-dependent
    kind with Bbar and Ebar nonzero: no coefficient replaces them there, as
    a = 1 does on the stationary kinds and for Bbar = 0, or when the
    coefficients make a non-finite frequency (WaveVector rejects it).
    """
    terms = _wave_cone_terms(direction, kind, tol)
    if terms is None:
        raise NotInConeError(
            f"direction is not in the wave cone for kind {kind.label!r}")
    # Bbar x ubar, |Bbar|^2 (which Faraday's relation reads), |Ebar| and
    # |Bbar x ubar|, as the cone test formed them.
    nx, ny, nz, nb2, ne, mix = terms
    sqrt = math.sqrt
    B, u, E = direction
    bx, by, bz = B
    ux, uy, uz = u
    ex, ey, ez = E
    axis = ex, ey, ez
    if kind.restricts_u and (nx or ny or nz) and not ne > mix:
        axis = nx, ny, nz
    # Ebar x Bbar.
    cx, cy, cz = ey * bz - ez * by, ez * bx - ex * bz, ex * by - ey * bx

    if not (axis[0] or axis[1] or axis[2]):
        xi_x = unit_perpendicular_to_all((B, u if kind.incompressible else (0.0, 0.0, 0.0)))
    elif kind.restricts_u:
        xi_x = _vec(axis)
    elif nb2 == 0.0:
        # xi_x x Ebar = 0 with xi_t unconstrained forces xi_x parallel to Ebar.
        if a == 0.0:
            a = 1.0
        xi_x = _vec((ex * a, ey * a, ez * a))
    else:
        if kind.incompressible:
            v1 = ux * ex + uy * ey + uz * ez
            v2 = ux * cx + uy * cy + uz * cz
            scale = max(abs(v1), abs(v2))
            if scale > 1e-15 * (1.0 + sqrt(ux * ux + uy * uy + uz * uz)
                                * (ne + sqrt(cx * cx + cy * cy + cz * cz))):
                a, c = v2 / scale, -v1 / scale
        if kind.stationary:
            c = 0.0
            if a == 0.0:
                a = 1.0
        elif a == 0.0 and c == 0.0:
            raise ValueError(f"coefficients (a, c) = ({a}, {c}) give the zero spatial "
                             "frequency a Ebar + c (Ebar x Bbar)")
        xi_x = _vec((ex * a + cx * c, ey * a + cy * c, ez * a + cz * c))
    return WaveVector(xi_x, _time_frequency(xi_x, (cx, cy, cz), nb2, kind))


def _time_frequency(xi_x: Vec3, exb: tuple, nb2: float, kind: ConeKind) -> float:
    """The time frequency Faraday's relation xi_t Bbar + xi_x x Ebar = 0 gives
    a spatial frequency xi_x, from the components exb of Ebar x Bbar and
    nb2 = |Bbar|^2: -xi_x . (Ebar x Bbar) / |Bbar|^2, or 0.0 for stationary
    kinds and for Bbar = 0."""
    if kind.stationary or nb2 == 0.0:
        return 0.0
    kx, ky, kz = xi_x
    cx, cy, cz = exb
    return -(kx * cx + ky * cy + kz * cz) / nb2


def round_to_lattice(xi: WaveVector, direction: Triple,
                     kind: ConeKind = ConeKind.NONSTATIONARY) -> WaveVector:
    """Scale xi to the nearest nonzero integer frequency vector.

    Tries scalings that put the largest spatial component at
    1..LATTICE_MAX_SCALE, accepting an integer candidate within angle 1e-2
    of xi_x whose time frequency from Faraday's relation is an integer and
    whose frequencies satisfy every plane-wave condition of `kind` within
    RESIDUAL_SLACK, div u included on the incompressible kinds.  Raises
    LatticeError when the wave vector is not commensurable with the integer
    lattice at these scales.
    """
    size = direction.norm()
    B, _, E = direction
    exb, nb2 = _cross(E, B), _dot(B, B)
    if xi.is_lattice():
        reduced = _reduce_lattice(xi)
        if _conditions_ok(direction, size, reduced, kind):
            return reduced
    # xi_x scaled by a power of two, exactly, so that neither |xi_x|^2 nor
    # k / top over- or underflows: the same candidates and angles as xi_x's.
    x, y, z = xs = _unit_scaled(xi.xi_x)
    top, xs_norm = max(abs(x), abs(y), abs(z)), math.sqrt(_dot(xs, xs))
    for k in range(1, LATTICE_MAX_SCALE + 1):
        t = k / top
        cand_x = Vec3(round(x * t), round(y * t), round(z * t))
        if cand_x.norm() == 0.0:
            continue
        cos_angle = cand_x.dot(xs) / (cand_x.norm() * xs_norm)
        if cos_angle < math.cos(1e-2):
            continue
        xi_t = _time_frequency(cand_x, exb, nb2, kind)
        if abs(xi_t - round(xi_t)) > LATTICE_TOL:
            continue
        cand = WaveVector(cand_x, round(xi_t))
        if _conditions_ok(direction, size, cand, kind):
            return _reduce_lattice(cand)
    raise LatticeError(
        f"no integer frequency within angle 1e-2 of {xi!r} up to scale {LATTICE_MAX_SCALE}")


def _reduce_lattice(xi: WaveVector) -> WaveVector:
    """Divide an integer frequency vector by the gcd of its entries, keeping
    the lowest grid-resolvable mode of the same wave family."""
    vals = [round(v) for v in (*xi.xi_x, xi.xi_t)]
    g = math.gcd(*vals)
    return WaveVector(Vec3(*(v / g for v in vals[:3])), vals[3] / g)


class GridResidualReport(namedtuple("GridResidualReport", "n h residuals xi kind")):
    """Max-norm centred-difference residuals of each conserved equation: the
    tuple (n, h, residuals, xi, kind), kind the cone kind's label."""

    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {"n": self.n, "h": self.h, "residuals": dict(self.residuals),
                "xi": self.xi.to_json_dict(), "kind": self.kind}


def grid_residual(direction: Triple, xi: WaveVector, g: GridSpec,
                  kind: ConeKind = ConeKind.NONSTATIONARY) -> GridResidualReport:
    """Centred-difference residuals of the sin-profile plane wave.

    The field sin(x . xi_x + t xi_t) * direction is sampled on an n^3 grid
    (times n points in t for a time-dependent wave) spanning g.periods
    2*pi periods per axis, which requires integer frequencies.  Grid point
    (i, j, k, t) then has phase index q = periods (i kx + j ky + k kz) +
    t step_t mod n, and its stencil neighbours sit at q +- periods k_axis
    and q +- step_t: every centred difference, and so every residual,
    depends on q alone.  The residues q the grid reaches are the multiples
    of gcd(n, steps), so the stencil is evaluated once per reached residue
    on the same sampled sine table, which gives the max norm over all grid
    points.  Each residual combines the differences linearly by one row of
    coefficients over 2h (div B from B; a Faraday component from +-E, and B
    for d/dt; div u from u).  Stationary kinds and waves with xi_t = 0 have
    no t step.  The stencil's truncation error on sin is O(h^2) per equation.
    """
    if not xi.is_lattice():
        raise ValueError("grid_residual needs integer frequencies for exact "
                         "periodicity; use round_to_lattice first")
    n, bb, uu, ee = g.n, direction.B, direction.u, direction.E
    rows = [(bb.x, bb.y, bb.z, 0.0), (0.0, ee.z, -ee.y, bb.x),
            (-ee.z, 0.0, ee.x, bb.y), (ee.y, -ee.x, 0.0, bb.z)]
    if kind.incompressible:
        rows.append((uu.x, uu.y, uu.z, 0.0))
    # Steps reduced mod n in Python ints: the stencil reads the same residues,
    # and a step of 2^63 or more still fits the int64 gather below.
    steps = [g.periods * round(c) % n for c in xi.xi_x]
    if not (kind.stationary or xi.xi_t == 0.0):
        steps.append(g.periods * round(xi.xi_t) % n)
    coef = np.array(rows)[:, :len(steps)] / (2.0 * g.h)
    sines = np.sin(np.arange(n) * (TWO_PI / n))
    q = np.arange(0, n, math.gcd(n, *steps))
    k = np.array(steps, dtype=np.int64)[:, None]
    diffs = sines[(q + k) % n] - sines[(q - k) % n]
    worst = [float(abs(np.dot(row, diffs)).max()) for row in coef]
    residuals = {"div_B": worst[0], "faraday": max(worst[1:4])}
    if kind.incompressible:
        residuals["div_u"] = worst[4]
    return GridResidualReport(n, g.h, residuals, xi, kind.label)


# Residuals below this floor are rounding noise, not truncation error;
# convergence ratios against them are meaningless.
RESIDUAL_FLOOR = 1e-13


def refinement_study(direction: Triple, xi: WaveVector, kind: ConeKind,
                     levels: tuple[int, ...]) -> dict:
    """Grid residuals across refinement levels plus coarse/fine ratios.

    A centred second-order stencil on a smooth profile should show ratios
    approaching 4 (>= 3 in the asymptotic regime) wherever the residual is
    above rounding level.  Raises ValueError when levels is empty.
    """
    if not levels:
        raise ValueError("refinement_study needs at least one grid level")
    reports = [grid_residual(direction, xi, GridSpec(n), kind) for n in levels]
    ratios: dict[str, list] = {}
    for key in reports[0].residuals:
        row = []
        for coarse, fine in zip(reports, reports[1:]):
            c, f = coarse.residuals[key], fine.residuals[key]
            row.append(c / f if f > RESIDUAL_FLOOR else None)
        ratios[key] = row
    return {
        "levels": list(levels),
        "residuals": [rep.residuals for rep in reports],
        "ratios": ratios,
        "xi": xi.to_json_dict(),
        "kind": kind.label,
    }


class StaircaseReport(namedtuple("StaircaseReport",
                                  "average error fraction weight n_osc samples")):
    """Domain average of a two-state staircase field and its mixing error: the
    tuple (average, error, fraction, weight, n_osc, samples)."""

    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {
            "average": self.average.to_json_dict(),
            "error": self.error,
            "fraction": self.fraction,
            "weight": self.weight,
            "n_osc": self.n_osc,
            "samples": self.samples,
        }


def staircase_average(d: Decomposition, xi: WaveVector, n_osc: int, g: GridSpec,
                      kind: ConeKind = ConeKind.NONSTATIONARY) -> StaircaseReport:
    """Average the piecewise-constant oscillation between the two endpoints.

    The field takes value z1 where frac(n_osc * phi / 2pi) < lambda and z2
    otherwise, with phi the plane-wave phase; jumps across phase planes are
    admissible because z1 - z2 satisfies the plane-wave conditions of `kind`
    for xi (validated here within RESIDUAL_SLACK, by the condition kernel
    round_to_lattice uses, div u included on the incompressible kinds).  The
    1-D phase is sampled at g.n**3 midpoints of equal steps across the averaging
    window; samples reports that count, and fraction the share of them
    below lambda.

    Each component of the endpoints is read once: the jump z1 - z2, its
    size, its conditions and the average come from those components.  The
    average is z1 f + z2 (1 - f) with f the fraction, and its distance from
    the mixture lambda z1 + (1 - lambda) z2 is (f - lambda)(z1 - z2), so the
    error is the closed form |f - lambda| |z1 - z2|, with no mixture formed.

    The averaging window spans g.periods base periods plus half an
    oscillation band.  A window commensurate with the bands would average
    every band exactly and leave only grid quantisation noise; the extra
    half band makes the leading averaging error

        min(lambda, 1 - lambda) / (2 * periods * n_osc + 1),

    which cleanly halves when n_osc doubles, the signature of weak
    convergence of fast oscillations to their mean.

    The sampled band positions depend on (n_osc, g.n, g.periods) only: they
    are cached sorted for the last 4 keys, g.n**3 doubles each, and the
    count below lambda is one binary search.  A table is built in place, so
    building one peaks at one table's memory: 0.9 MB at n = 48, 16.8 MB at
    n = 128.
    """
    if not (n_osc >= 1 and n_osc % 1 == 0):
        raise ValueError(f"n_osc must be a positive integer, got {n_osc}")
    n_osc = int(n_osc)
    lam, z1, z2 = d
    (b1x, b1y, b1z), (u1x, u1y, u1z), (e1x, e1y, e1z) = z1
    (b2x, b2y, b2z), (u2x, u2y, u2z), (e2x, e2y, e2z) = z2
    dbx, dby, dbz = b1x - b2x, b1y - b2y, b1z - b2z
    dux, duy, duz = u1x - u2x, u1y - u2y, u1z - u2z
    dex, dey, dez = e1x - e2x, e1y - e2y, e1z - e2z
    size = _norm_rs(dbx * dbx + dby * dby + dbz * dbz, dux * dux + duy * duy + duz * duz,
                    dex * dex + dey * dey + dez * dez, 1.0, 1.0)
    dz = ((dbx, dby, dbz), (dux, duy, duz), (dex, dey, dez))
    if not _conditions_ok(dz, size, xi, kind):
        raise ValueError("xi does not admit plane waves along z1 - z2; "
                         f"condition residuals {plane_wave_conditions(dz, xi, kind)}")

    fracs = _band_fractions(n_osc, g.n, g.periods)
    samples = fracs.size
    fraction = float(fracs.searchsorted(lam)) / samples
    rest = 1.0 - fraction
    average = _from_parts(
        (b1x * fraction + b2x * rest, b1y * fraction + b2y * rest, b1z * fraction + b2z * rest),
        (u1x * fraction + u2x * rest, u1y * fraction + u2y * rest, u1z * fraction + u2z * rest),
        (e1x * fraction + e2x * rest, e1y * fraction + e2y * rest, e1z * fraction + e2z * rest))
    return _tuple_new(StaircaseReport,
                      (average, abs(fraction - lam) * size, fraction, lam, n_osc, samples))


@functools.lru_cache(maxsize=4)
def _band_fractions(n_osc: int, n: int, periods: int) -> np.ndarray:
    """Sorted, read-only band positions of staircase_average's samples.

    Sample k sits at frac(((k + 0.5) * (window / samples)) * (n_osc / 2pi)),
    rounded in that order.  The table is built in place in one array, so
    building it takes one table's memory."""
    samples = n ** 3
    window = TWO_PI * periods + math.pi / n_osc
    fracs = np.arange(samples, dtype=np.float64)
    fracs += 0.5
    fracs *= window / samples
    fracs *= n_osc / TWO_PI
    np.remainder(fracs, 1.0, out=fracs)
    fracs.sort()
    fracs.flags.writeable = False
    return fracs
