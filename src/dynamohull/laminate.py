"""Constructive decomposition of relaxed-set points into constraint-set pairs.

Every point of the relaxed set is a convex combination of exactly two
constraint-set states whose difference is an admissible oscillation
direction.  This module produces such a witness constructively:

* ``decompose_exact_ohm`` handles E = B x u by perturbing (B, u) with a
  parallel pair of vectors perpendicular to both, restoring the amplitudes.

* ``solve_laminate_conditions`` handles the genuine interior case.  With the
  normalised excess Ebar = (E - B x u) / sqrt((r^2-|B|^2)(s^2-|u|^2)), it
  looks for perturbations Bbar, ubar in the plane perpendicular to Ebar
  whose directions differ by the rotation of angle arcsin|Ebar| about
  Ebar/|Ebar| (so that bhat x uhat = Ebar exactly), and whose angle to B
  balances the amplitude budget:

      G(alpha) = |B| cos(alpha)
                 - sqrt((r^2-|B|^2)/(s^2-|u|^2)) * (u . uhat(alpha)) = 0.

  In a fixed frame G is a sinusoid A cos(alpha) + C sin(alpha), so its root
  in [pi/2, 3pi/2] is the direction perpendicular to (A, C) with
  cos(alpha) <= 0: (cos alpha, sin alpha) = (-|C|, sign(C) A) / sqrt(A^2 + C^2),
  in closed form and without a trigonometric call.  The perturbation
  lengths follow from
  |Bbar|^2 = 4 (r^2 - |B|^2 sin^2 alpha) and
  |Bbar|^2 (s^2-|u|^2) = |ubar|^2 (r^2-|B|^2).

* ``decompose`` checks membership once, dispatches between the two and
  assembles the endpoints with weight lambda = 1/2 + B . Bbar / |Bbar|^2.

* ``verify_decomposition`` is the independent residual check used by the
  test suite and the sampling oracle.

The interior decomposition (the stages ``_excess``, ``_frame``,
``_sinusoid``, ``_perturbations``, ``_weight`` and ``_endpoints``) and the
verification residuals (``_residuals``) are written once, on component
triples, and one body serves both paths: the per-point functions run it on
Python floats, the campaign engine on blocks of (B, u, E) component columns
(``_decompose_block``, and ``_residuals`` on ``_COLUMNS``), so each row
rounds exactly as the per-point path.  The per-point callers raise between
stages, before the float arithmetic each guard protects; the block computes
every row through and leaves the rows a guard would stop, and the points
outside the set, to ``decompose``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (
    ConeKind,
    DEFAULT_TOLERANCES,
    HullParams,
    SeparationWitness,
    Tolerances,
    Triple,
    Vec3,
    _COLUMNS,
    _FLOATS,
    _Math,
    _cone_residual,
    _cross,
    _dot,
    _excess_cap,
    _norm_rs,
    _parts,
    _separating_function,
    _separation_flags,
    _triple,
    _vec,
    separation_witness,
    unit_perpendicular,
    unit_perpendicular_to_all,
)

HALF_PI = 0.5 * math.pi


class DecompositionError(ValueError):
    """Base class for decomposition failures; witness, when not None, is the
    function that separates the point from the relaxed set."""

    def __init__(self, message: str, witness: SeparationWitness | None = None):
        super().__init__(message)
        self.witness = witness


class NotInHullError(DecompositionError):
    """The target point lies outside the relaxed set (or on a bad boundary)."""


class DegenerateCallError(DecompositionError):
    """The interior solver was called on an E = B x u point."""


@dataclass(frozen=True)
class Decomposition:
    """Weight and endpoints of a two-state mixture: lam*z1 + (1-lam)*z2."""

    lam: float
    z1: Triple
    z2: Triple

    def combine(self) -> Triple:
        return self.z1 * self.lam + self.z2 * (1.0 - self.lam)

    def to_json_dict(self, residuals: dict | None = None) -> dict:
        d = {
            "lambda": self.lam,
            "z1": self.z1.to_json_dict(),
            "z2": self.z2.to_json_dict(),
        }
        if residuals is not None:
            d["residuals"] = dict(residuals)
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> "Decomposition":
        try:
            lam = float(d["lambda"])
            if not math.isfinite(lam):
                raise ValueError(f"non-finite decomposition weight lambda = {lam}")
            return cls(lam, Triple.from_json_dict(d["z1"]), Triple.from_json_dict(d["z2"]))
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed decomposition JSON: {exc}") from exc


@dataclass(frozen=True)
class LaminateConditions:
    """Solved perturbation data for an interior relaxed-set point.

    ebar is the normalised excess field, bbar/ubar the perturbations, and
    alpha_b / alpha_u the angles between B and bbar resp. u and ubar (zero
    by convention when the base vector vanishes).
    """

    ebar: Vec3
    bbar: Vec3
    ubar: Vec3
    alpha_b: float
    alpha_u: float


@dataclass(frozen=True, slots=True)
class AngleEquation:
    """The scalar gap G(alpha) whose root balances the amplitude budget.

    With the working-plane frame fixed, G reduces to a pure sinusoid
    A cos(alpha) + C sin(alpha); the endpoint values of the root bracket
    [pi/2, 3pi/2] therefore satisfy G(pi/2) = -G(3pi/2) exactly.
    """

    e1: Vec3
    e2: Vec3
    p_vec: Vec3
    q_vec: Vec3
    amp_cos: float
    amp_sin: float

    @property
    def bracket(self) -> tuple[float, float]:
        return (HALF_PI, 3.0 * HALF_PI)

    def __call__(self, alpha: float) -> float:
        return self.amp_cos * math.cos(alpha) + self.amp_sin * math.sin(alpha)

    def root(self) -> float:
        """The root of G in [pi/2, 3pi/2]."""
        return _angle(*_root_direction(self.amp_cos, self.amp_sin, _FLOATS))


def _require_in_hull(z: Triple, p: HullParams, kind: ConeKind, tol: Tolerances | None):
    """Raise NotInHullError, carrying the separating witness, when z is outside;
    the witness is built only then."""
    if _separating_function(z, p, kind, (tol or DEFAULT_TOLERANCES).eps_mem) is not None:
        w = separation_witness(z, p, kind, tol)
        raise NotInHullError(f"point outside the relaxed set (witness {w.function}"
                             f" = {w.value})", w)


def decompose_exact_ohm(B: Vec3, u: Vec3, p: HullParams, kind: ConeKind = ConeKind.NONSTATIONARY,
                        tol: Tolerances | None = None) -> Decomposition:
    """Split (B, u, B x u) into two full-amplitude states.

    Uses a single unit direction e perpendicular to both B and u, sets
    Bbar = sqrt(r^2-|B|^2) e and ubar = sqrt(s^2-|u|^2) e, and returns the
    midpoint combination of (B +- Bbar, u +- ubar).  Because Bbar and ubar
    are parallel, their cross product vanishes and the midpoint electric
    field is exactly B x u; the difference of the endpoints is admissible
    for every cone kind.
    """
    _require_in_hull(Triple(B, u, B.cross(u)), p, kind, tol)
    return _split_exact_ohm(B, u, p)


def _split_exact_ohm(B: Vec3, u: Vec3, p: HullParams) -> Decomposition:
    e = unit_perpendicular_to_all((B, u))
    # Endpoints B +- e sqrt(r^2-|B|^2), u +- e sqrt(s^2-|u|^2): the difference
    # is doubled here and halved by lam = 1/2, both exact in floating point.
    return _decomposition(0.5, *_endpoints(
        tuple(B), tuple(u), tuple(e * (2.0 * math.sqrt(max(0.0, p.r * p.r - B.norm2())))),
        tuple(e * (2.0 * math.sqrt(max(0.0, p.s * p.s - u.norm2())))), 0.5))


def _decomposition(lam: float, z1, z2) -> Decomposition:
    """The Decomposition of a weight and two (B, u, E) states of component triples."""
    (B1, u1, E1), (B2, u2, E2) = z1, z2
    return Decomposition(lam, _triple(_vec(*B1), _vec(*u1), _vec(*E1)),
                         _triple(_vec(*B2), _vec(*u2), _vec(*E2)))


def _endpoints(B, u, bbar, ubar, lam):
    """Endpoints (B + (1-lam) bbar, u + (1-lam) ubar) and (B - lam bbar, u - lam ubar)
    of component triples, each E its own B x u, as two (B, u, E) states."""
    mu = 1.0 - lam
    B1 = (B[0] + bbar[0] * mu, B[1] + bbar[1] * mu, B[2] + bbar[2] * mu)
    u1 = (u[0] + ubar[0] * mu, u[1] + ubar[1] * mu, u[2] + ubar[2] * mu)
    B2 = (B[0] - bbar[0] * lam, B[1] - bbar[1] * lam, B[2] - bbar[2] * lam)
    u2 = (u[0] - ubar[0] * lam, u[1] - ubar[1] * lam, u[2] - ubar[2] * lam)
    return (B1, u1, _cross(B1, u1)), (B2, u2, _cross(B2, u2))


class _Frame(NamedTuple):
    """The working-plane data of an interior point, built once per point."""

    rr: float     # r^2 - |B|^2
    ebar: tuple   # (E - B x u) / sqrt((r^2-|B|^2)(s^2-|u|^2)), components
    nhat: tuple   # ebar / |ebar|, components
    ct: float     # cos of the rotation angle arcsin|ebar|
    st: float     # sin of it: |ebar|, capped at 1 against rounding
    kappa: float  # sqrt((r^2-|B|^2) / (s^2-|u|^2))


def _excess(B, u, E, p: HullParams, m: _Math):
    """r^2 - |B|^2, s^2 - |u|^2, the excess E - B x u and its length."""
    rr = p.r * p.r - _dot(B, B)
    ss = p.s * p.s - _dot(u, u)
    bxu = _cross(B, u)
    excess = (E[0] - bxu[0], E[1] - bxu[1], E[2] - bxu[2])
    return rr, ss, excess, m.sqrt(_dot(excess, excess))


def _frame(rr, ss, excess, m: _Math) -> _Frame:
    """The frame of a point from _excess's values; needs rr, ss > 0 and excess != 0."""
    scale = m.sqrt(rr * ss)
    ebar = (excess[0] / scale, excess[1] / scale, excess[2] / scale)
    e_len = m.sqrt(_dot(ebar, ebar))
    st = m.where(1.0 < e_len, 1.0, e_len)
    return _Frame(rr, ebar, (ebar[0] / e_len, ebar[1] / e_len, ebar[2] / e_len),
                  m.sqrt(m.positive(1.0 - st * st)), st, m.sqrt(rr / ss))


def _plane_normal(e1, f: _Frame, m: _Math):
    """w = e1 x nhat, the normal of the working plane through the axis e1, and |w|."""
    w = _cross(e1, f.nhat)
    return w, m.sqrt(_dot(w, w))


def _sinusoid(u, nb, e1, w, wn, f: _Frame):
    """The frame (e1, e2, p_vec, q_vec) and the amplitudes (A, C) of the angle
    equation, from |B|, the axis e1 and the plane normal w of length wn > 0."""
    _, _, nhat, ct, st, kappa = f
    e2 = (w[0] / wn, w[1] / wn, w[2] / wn)
    # uhat(alpha) is bhat(alpha) rotated by arcsin|Ebar| about +nhat, which
    # makes bhat x uhat = Ebar for every alpha.  Both are linear in
    # (cos alpha, sin alpha), so G is the sinusoid below.
    n1 = _cross(nhat, e1)
    n2 = _cross(nhat, e2)
    p_vec = (e1[0] * ct + n1[0] * st, e1[1] * ct + n1[1] * st, e1[2] * ct + n1[2] * st)
    q_vec = (e2[0] * ct + n2[0] * st, e2[1] * ct + n2[1] * st, e2[2] * ct + n2[2] * st)
    return e1, e2, p_vec, q_vec, nb - kappa * _dot(u, p_vec), -kappa * _dot(u, q_vec)


def _root_direction(amp_cos, amp_sin, m: _Math):
    """(cos alpha, sin alpha) of the root alpha of A cos(alpha) + C sin(alpha) in
    [pi/2, 3pi/2], in closed form: the unit vector perpendicular to (A, C) with
    cos(alpha) <= 0, (-|C|, sign(C) A) / sqrt(A^2 + C^2).  Where C = 0 it is
    (0, 1), and where A = C = 0 it is (-1, 0)."""
    rho = m.sqrt(amp_cos * amp_cos + amp_sin * amp_sin)
    signed = m.where(amp_sin < 0.0, -amp_cos, m.where(amp_sin > 0.0, amp_cos, abs(amp_cos)))
    return m.where(rho == 0.0, -1.0, m.quotient(-abs(amp_sin), rho)), m.quotient(signed, rho)


def _angle(ca, sa) -> float:
    """The angle in [0, 2pi) of the direction (cos, sin)."""
    return math.atan2(sa, ca) % math.tau


def _perturbations(nb, eq, f: _Frame, m: _Math):
    """The root (cos alpha, sin alpha) of the angle equation eq (_sinusoid's
    values), bbar, ubar and the unit direction uhat of ubar."""
    e1, e2, p_vec, q_vec, amp_cos, amp_sin = eq
    ca, sa = _root_direction(amp_cos, amp_sin, m)
    # |Bbar|^2 = 4 (r^2 - |B|^2 sin^2 alpha), computed as the amplitude gap
    # plus |B|^2 cos^2 alpha: near the boundary the direct form cancels
    # catastrophically and the endpoint amplitudes inherit the damage.
    bbar_len = 2.0 * m.sqrt(f.rr + nb * nb * (ca * ca))
    ubar_len = bbar_len / f.kappa
    bbar = ((e1[0] * ca + e2[0] * sa) * bbar_len, (e1[1] * ca + e2[1] * sa) * bbar_len,
            (e1[2] * ca + e2[2] * sa) * bbar_len)
    uhat = (p_vec[0] * ca + q_vec[0] * sa, p_vec[1] * ca + q_vec[1] * sa,
            p_vec[2] * ca + q_vec[2] * sa)
    return (ca, sa), bbar, (uhat[0] * ubar_len, uhat[1] * ubar_len, uhat[2] * ubar_len), uhat


def _weight(B, bbar, m: _Math):
    """lam = 1/2 + B . bbar / |bbar|^2, clipped to [0, 1]."""
    lam = m.positive(0.5 + _dot(B, bbar) / _dot(bbar, bbar))
    return m.where(lam < 1.0, lam, 1.0)


def _interior_frame(B, u, E, p: HullParams, tol: Tolerances):
    """The frame, |B| and the angle equation (_sinusoid's values) of an interior point
    of float component triples.  Raises DegenerateCallError when |E - B x u| <=
    eps_root rs, NotInHullError on the amplitude boundary and DecompositionError
    when the working plane is degenerate, each before the arithmetic it guards."""
    rr, ss, excess, c = _excess(B, u, E, p, _FLOATS)
    if c <= tol.eps_root * p.r * p.s:
        raise DegenerateCallError(
            "E = B x u within tolerance; use decompose_exact_ohm")
    if rr <= tol.eps_mem * p.r * p.r or ss <= tol.eps_mem * p.s * p.s:
        # On the amplitude boundary the excess must vanish, so a boundary
        # point with E != B x u cannot be an interior relaxed-set point.
        raise NotInHullError(
            f"amplitude on the boundary (r^2-|B|^2={rr}, s^2-|u|^2={ss}) "
            f"with nonzero excess |E-Bxu|={c}")
    f = _frame(rr, ss, excess, _FLOATS)
    nb = math.sqrt(_dot(B, B))
    # With B = 0 any axis perpendicular to the excess will do: G then reads
    # -kappa u . uhat(alpha) for every such axis, and its root makes uhat
    # perpendicular to u.
    e1 = (B[0] / nb, B[1] / nb, B[2] / nb) if nb else tuple(unit_perpendicular(_vec(*f.nhat)))
    w, wn = _plane_normal(e1, f, _FLOATS)
    # B . Ebar = 0 on the relaxed set forces |B x Ebar| = |B||Ebar|; it vanishes
    # only for a tiny B parallel to the excess, admitted by the slack of g1.
    if wn < 1e-6:
        raise DecompositionError(
            "working plane degenerate: B is parallel to the excess field")
    return f, nb, _sinusoid(u, nb, e1, w, wn, f)


def angle_equation(z: Triple, p: HullParams, kind: ConeKind = ConeKind.NONSTATIONARY,
                   tol: Tolerances | None = None) -> AngleEquation:
    """Build the angle equation G for an interior point with B != 0.

    Exposed so tests can scan G for continuity, check the bracket signs and
    check the root the solver chose.
    """
    _require_in_hull(z, p, kind, tol)
    # With B = 0 the working plane is never degenerate, so no other error
    # precedes this one.
    _, nb, (*vectors, amp_cos, amp_sin) = _interior_frame(*_parts(z), p, tol or DEFAULT_TOLERANCES)
    if nb == 0.0:
        raise DegenerateCallError("angle equation needs B != 0; with B = 0 the "
                                  "frame axis is free")
    return AngleEquation(*(_vec(*v) for v in vectors), amp_cos, amp_sin)


def solve_laminate_conditions(z: Triple, p: HullParams, kind: ConeKind = ConeKind.NONSTATIONARY,
                              tol: Tolerances | None = None) -> LaminateConditions:
    """Find perturbations (Bbar, ubar) witnessing an interior relaxed point.

    The returned conditions satisfy, up to rounding,

        E = B x u + sqrt((r^2-|B|^2)(s^2-|u|^2)) (Bbar x ubar)/(|Bbar||ubar|),
        |Bbar|^2 (s^2-|u|^2) = |ubar|^2 (r^2-|B|^2),
        |Bbar|^2 = 4 (r^2 - |B|^2 sin^2 alpha_b),
        |B| cos(alpha_b) = sqrt((r^2-|B|^2)/(s^2-|u|^2)) |u| cos(alpha_u),
        B . (Bbar x ubar) = 0,

    and additionally u . (Bbar x ubar) = 0 for the stationary incompressible
    cone (where the excess is parallel to B x u, so the working plane is
    span{B, u}).
    """
    _require_in_hull(z, p, kind, tol)
    f, nb, eq = _interior_frame(*_parts(z), p, tol or DEFAULT_TOLERANCES)
    root, bbar, ubar, uhat = _perturbations(nb, eq, f, _FLOATS)
    uhat = _vec(*uhat)
    alpha_u = math.atan2(z.u.cross(uhat).norm(), z.u.dot(uhat)) if z.u.norm() > 0.0 else 0.0
    return LaminateConditions(ebar=_vec(*f.ebar), bbar=_vec(*bbar), ubar=_vec(*ubar),
                              alpha_b=_angle(*root) if nb else 0.0, alpha_u=alpha_u)


def decompose(z: Triple, p: HullParams, kind: ConeKind = ConeKind.NONSTATIONARY,
              tol: Tolerances | None = None) -> Decomposition:
    """Write a relaxed-set point as a two-state constraint-set mixture.

    Decompositions are not unique.  A point with |E - B x u| <= eps_root rs
    is split along a direction perpendicular to B and u
    (decompose_exact_ohm); any other point by the laminate conditions at the
    closed-form root of the angle equation in [pi/2, 3pi/2].  Raises
    NotInHullError (with the separating function attached) for points
    outside the relaxed set, and DecompositionError when the working plane
    is degenerate.
    """
    tol = tol or DEFAULT_TOLERANCES
    _require_in_hull(z, p, kind, tol)
    B, u, E = _parts(z)
    try:
        f, nb, eq = _interior_frame(B, u, E, p, tol)
    except DegenerateCallError:  # E = B x u within eps_root rs
        return _split_exact_ohm(z.B, z.u, p)
    _, bbar, ubar, _ = _perturbations(nb, eq, f, _FLOATS)
    lam = _weight(B, bbar, _FLOATS)
    return _decomposition(lam, *_endpoints(B, u, bbar, ubar, lam))


def _decompose_block(B, u, E, p: HullParams, kind: ConeKind, tol: Tolerances):
    """decompose on the interior rows of a block of targets (B, u, E), columns.

    Returns (lam, z1, z2, fallback): the weights and the endpoint states (as
    columns) from decompose's stages, and the mask of rows left to decompose
    itself: outside the relaxed set, exact Ohm, B = 0, amplitude boundary or a
    degenerate working plane.  lam, z1 and z2 are meaningless on those rows.
    """
    r, s = p.r, p.s
    m = _COLUMNS
    with np.errstate(all="ignore"):
        rr, ss, excess, c = _excess(B, u, E, p, m)
        f = _frame(rr, ss, excess, m)
        nb = np.sqrt(_dot(B, B))
        e1 = tuple(x / nb for x in B)
        w, wn = _plane_normal(e1, f, m)
        _, bbar, ubar, _ = _perturbations(nb, _sinusoid(u, nb, e1, w, wn, f), f, m)
        lam = _weight(B, bbar, m)
        z1, z2 = _endpoints(B, u, bbar, ubar, lam)
        g1, g3, g2 = _separation_flags(B, u, E, p, kind, tol.eps_mem, m)
        fallback = (g1 | g3 | g2 | (c <= tol.eps_root * r * s)
                    | (rr <= tol.eps_mem * r * r) | (ss <= tol.eps_mem * s * s)
                    | (nb == 0.0) | ~(wn >= 1e-6))
    return lam, z1, z2, fallback


def _residuals(lam, z1, z2, target, p: HullParams, kind: ConeKind, m: _Math) -> dict:
    """verify_decomposition's residuals, in its key order, of the weight lam and
    the (B, u, E) states z1, z2 and target of component triples: floats, or
    numpy columns with one column per check."""
    r, s = p.r, p.s
    rs = r * s
    res = {}
    for name, (B, u, E) in (("z1", z1), ("z2", z2)):
        bxu = _cross(B, u)
        ohm = (E[0] - bxu[0], E[1] - bxu[1], E[2] - bxu[2])
        res[f"{name}_B_amplitude"] = abs(m.sqrt(_dot(B, B)) - r) / r
        res[f"{name}_u_amplitude"] = abs(m.sqrt(_dot(u, u)) - s) / s
        res[f"{name}_ohm"] = m.sqrt(_dot(ohm, ohm)) / rs

    dB, du, dE = ((a[0] - b[0], a[1] - b[1], a[2] - b[2]) for a, b in zip(z1, z2))
    res["cone_BE"] = _cone_residual(dB, dE, rs * r, m)
    if kind.restricts_u:
        res["cone_uE"] = _cone_residual(du, dE, rs * s, m)

    below = m.positive(-lam)
    res["lambda_range"] = m.where(lam - 1.0 > below, lam - 1.0, below)

    mu = 1.0 - lam
    gap = ((a[0] * lam + b[0] * mu - t[0], a[1] * lam + b[1] * mu - t[1],
            a[2] * lam + b[2] * mu - t[2]) for a, b, t in zip(z1, z2, target))
    res["reconstruction"] = _norm_rs(*gap, r, s, m) / (1.0 + _norm_rs(*target, r, s, m))

    tB, tu, _ = target
    d_bound = m.sqrt(_excess_cap(_dot(tB, tB), _dot(tu, tu), p, m))
    prod = lam * mu * m.sqrt(_dot(dB, dB)) * m.sqrt(_dot(du, du))
    res["weight_amplitude_identity"] = abs(prod - d_bound) / (rs + d_bound)
    return res


@dataclass(frozen=True)
class VerificationReport:
    """Per-check residuals for a decomposition; failures are reported, not thrown."""

    passed: bool
    max_residual: float
    residuals: dict
    failures: tuple[str, ...]

    def to_json_dict(self) -> dict:
        return {
            "passed": self.passed,
            "max_residual": self.max_residual,
            "residuals": dict(self.residuals),
            "failures": list(self.failures),
        }


def verify_decomposition(d: Decomposition, target: Triple, p: HullParams,
                         kind: ConeKind = ConeKind.NONSTATIONARY,
                         tol: Tolerances | None = None) -> VerificationReport:
    """Check a decomposition against its target, reporting residuals.

    Checks: both endpoints on the constraint set, endpoint difference in the
    cone for `kind`, weight inside [0,1], reconstruction of the target, and
    the product identity lam * (1-lam) * |B1-B2| * |u1-u2|
    = sqrt((r^2-|B|^2)(s^2-|u|^2)) tying the weight to the amplitude gaps.
    """
    tol = tol or DEFAULT_TOLERANCES
    res = _residuals(d.lam, _parts(d.z1), _parts(d.z2), _parts(target), p, kind, _FLOATS)
    # A NaN residual fails and is the maximum.
    failures = tuple(name for name, v in res.items() if not v <= tol.eps_mem)
    max_res = math.nan if any(map(math.isnan, res.values())) else max(res.values())
    return VerificationReport(passed=not failures, max_residual=max_res,
                              residuals=res, failures=failures)
