"""Constructive decomposition of relaxed-set points into constraint-set pairs.

Every point of the relaxed set is a convex combination of exactly two
constraint-set states whose difference is an admissible oscillation
direction.  ``decompose`` produces such a witness constructively; it is the
one way into the decomposition.  It checks membership once, with the
membership kernel, whose |B|^2, |u|^2 and excess E - B x u its stages take
over, and then takes one of two branches:

* E = B x u (within eps_root rs): (B, u) is perturbed by a parallel pair of
  vectors along core._perpendicular(B, u), restoring the amplitudes.

* The genuine interior case.  With the normalised excess
  Ebar = (E - B x u) / sqrt((r^2-|B|^2)(s^2-|u|^2)), it looks for
  perturbations Bbar, ubar in the plane perpendicular to Ebar whose
  directions differ by the rotation of angle arcsin|Ebar| about
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

The endpoints carry the weight lambda = 1/2 + B . Bbar / |Bbar|^2, which
cos(alpha) <= 0 keeps at most 1/2.  ``verify_decomposition`` is the
independent residual check used by the test suite and the sampling oracle.

The decomposition (the stages ``_exact_ohm_split``, ``_excess_frame``,
``_sinusoid``, ``_perturbations``, ``_weight`` and ``_endpoints``, with
core's ``_frame`` for the axis at B = 0) and the verification residuals
(``_residuals``) are written once, on component triples: ``decompose`` runs
them on Python floats, the campaign engine on blocks of (B, u, E) component
columns (``oracle._decompose_block``), so each row rounds exactly as one
point.  ``decompose`` raises between stages, before the float arithmetic
each guard protects; the block computes every row through, the exact-Ohm
and B = 0 stages on their own rows, and masks exactly the rows
``decompose`` raises on.  This module imports no numpy: the block wrapper
lives in oracle, next to the campaign that calls it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .core import (
    ConeKind,
    DEFAULT_TOLERANCES,
    HullParams,
    SeparationWitness,
    Tolerances,
    Triple,
    _FLOATS,
    _Math,
    _cone_residual,
    _constraint_residuals,
    _cross,
    _dot,
    _excess_cap,
    _frame,
    _from_parts,
    _norm_rs,
    _perpendicular,
    _separation_flags,
    separation_witness,
)


class DecompositionError(ValueError):
    """Base class for decomposition failures; witness, when not None, is the
    function that separates the point from the relaxed set."""

    def __init__(self, message: str, witness: SeparationWitness | None = None):
        super().__init__(message)
        self.witness = witness


class NotInHullError(DecompositionError):
    """The target point lies outside the relaxed set (or on a bad boundary)."""


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


def _decomposition(lam: float, z1, z2) -> Decomposition:
    """The Decomposition of a weight and two (B, u, E) states of component triples."""
    return Decomposition(lam, _from_parts(*z1), _from_parts(*z2))


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
    nhat: tuple   # ebar / |ebar|, components, with the normalised excess
                  # ebar = (E - B x u) / sqrt((r^2-|B|^2)(s^2-|u|^2))
    ct: float     # cos of the rotation angle arcsin|ebar|
    st: float     # sin of it: |ebar|, capped at 1 against rounding
    kappa: float  # sqrt((r^2-|B|^2) / (s^2-|u|^2))


def _excess_frame(rr, ss, excess, m: _Math) -> _Frame:
    """The frame of a point from r^2 - |B|^2, s^2 - |u|^2 and the excess E - B x u;
    needs rr, ss > 0 and excess != 0."""
    scale = m.sqrt(rr * ss)
    ebar = (excess[0] / scale, excess[1] / scale, excess[2] / scale)
    e_len = m.sqrt(_dot(ebar, ebar))
    st = m.where(1.0 < e_len, 1.0, e_len)
    return _Frame(rr, (ebar[0] / e_len, ebar[1] / e_len, ebar[2] / e_len),
                  m.sqrt(m.positive(1.0 - st * st)), st, m.sqrt(rr / ss))


def _exact_ohm_split(B, u, rr, ss, m: _Math):
    """bbar = 2 e sqrt(r^2-|B|^2) and ubar = 2 e sqrt(s^2-|u|^2) of a point with
    E = B x u, each gap clipped at 0, for a unit e perpendicular to B and u.  The
    perturbations are parallel, so the midpoint keeps E = B x u, and the
    difference is admissible for every cone kind; lam = 1/2 halves them, exactly."""
    e = _perpendicular(B, u, m)
    b_len, u_len = 2.0 * m.sqrt(m.positive(rr)), 2.0 * m.sqrt(m.positive(ss))
    return tuple(x * b_len for x in e), tuple(x * u_len for x in e)


def _plane_normal(e1, f: _Frame, m: _Math):
    """w = e1 x nhat, the normal of the working plane through the axis e1, and |w|."""
    w = _cross(e1, f.nhat)
    return w, m.sqrt(_dot(w, w))


def _sinusoid(u, nb, e1, w, wn, f: _Frame):
    """The frame (e1, e2, p_vec, q_vec) and the amplitudes (A, C) of the angle
    equation, from |B|, the axis e1 and the plane normal w of length wn > 0."""
    _, nhat, ct, st, kappa = f
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


def _perturbations(nb, eq, f: _Frame, m: _Math):
    """bbar and ubar at the root (cos alpha, sin alpha) of the angle equation eq
    (_sinusoid's values)."""
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
    return bbar, (uhat[0] * ubar_len, uhat[1] * ubar_len, uhat[2] * ubar_len)


def _weight(B, bbar, m: _Math):
    """lam = 1/2 + B . bbar / |bbar|^2, clipped to [0, 1]."""
    lam = m.positive(0.5 + _dot(B, bbar) / _dot(bbar, bbar))
    return m.where(lam < 1.0, lam, 1.0)


# decompose raises where the working plane's normal |e1 x nhat| falls below this.
_DEGENERATE_PLANE = 1e-6


def _exact_ohm(c, p: HullParams, tol: Tolerances):
    """c = |E - B x u| <= eps_root rs, decompose's exact-Ohm branch; floats or columns."""
    return c <= tol.eps_root * p.r * p.s


def _on_amplitude_boundary(rr, ss, p: HullParams, tol: Tolerances):
    """rr = r^2 - |B|^2 <= eps_mem r^2 or ss = s^2 - |u|^2 <= eps_mem s^2; floats or columns."""
    return (rr <= tol.eps_mem * p.r * p.r) | (ss <= tol.eps_mem * p.s * p.s)


def decompose(z: Triple, p: HullParams, kind: ConeKind = ConeKind.NONSTATIONARY,
              tol: Tolerances | None = None) -> Decomposition:
    """Write a relaxed-set point as a two-state constraint-set mixture.

    Decompositions are not unique.  A point with |E - B x u| <= eps_root rs
    is split along a direction perpendicular to B and u with weight 1/2; any
    other point by the laminate conditions at the closed-form root of the
    angle equation in [pi/2, 3pi/2], with weight at most 1/2.  Raises
    NotInHullError (with the separating function attached) for points
    outside the relaxed set, NotInHullError (without one) for a point on the
    amplitude boundary with a nonzero excess, and DecompositionError when
    the working plane is degenerate, each before the arithmetic it guards.
    """
    tol = tol or DEFAULT_TOLERANCES
    B, u, E = z
    flags, (nb2, nu2, excess, c2) = _separation_flags(B, u, E, p, kind, tol.eps_mem, _FLOATS)
    if any(flags):
        w = separation_witness(z, p, kind, tol)
        raise NotInHullError(f"point outside the relaxed set (witness {w.function}"
                             f" = {w.value})", w)
    rr, ss, c = p.r * p.r - nb2, p.s * p.s - nu2, math.sqrt(c2)
    if _exact_ohm(c, p, tol):
        bbar, ubar = _exact_ohm_split(B, u, rr, ss, _FLOATS)
        return _decomposition(0.5, *_endpoints(B, u, bbar, ubar, 0.5))
    if _on_amplitude_boundary(rr, ss, p, tol):
        # On the amplitude boundary the excess must vanish, so a boundary
        # point with E != B x u cannot be an interior relaxed-set point.
        raise NotInHullError(
            f"amplitude on the boundary (r^2-|B|^2={rr}, s^2-|u|^2={ss}) "
            f"with nonzero excess |E-Bxu|={c}")
    f = _excess_frame(rr, ss, excess, _FLOATS)
    nb = math.sqrt(nb2)
    # With B = 0 any axis perpendicular to the excess will do: G then reads
    # -kappa u . uhat(alpha) for every such axis, and its root makes uhat
    # perpendicular to u.  The block takes the same axis, p1 of nhat's frame.
    e1 = (B[0] / nb, B[1] / nb, B[2] / nb) if nb else _frame(f.nhat)[1]
    w, wn = _plane_normal(e1, f, _FLOATS)
    # B . Ebar = 0 on the relaxed set forces |B x Ebar| = |B||Ebar|; it vanishes
    # only for a tiny B parallel to the excess, admitted by the slack of g1.
    if wn < _DEGENERATE_PLANE:
        raise DecompositionError(
            "working plane degenerate: B is parallel to the excess field")
    bbar, ubar = _perturbations(nb, _sinusoid(u, nb, e1, w, wn, f), f, _FLOATS)
    lam = _weight(B, bbar, _FLOATS)
    return _decomposition(lam, *_endpoints(B, u, bbar, ubar, lam))


def _residuals(lam, z1, z2, target, p: HullParams, kind: ConeKind, m: _Math) -> dict:
    """verify_decomposition's residuals, in its key order, of the weight lam and
    the (B, u, E) states z1, z2 and target of component triples: floats, or
    numpy columns with one column per check."""
    r, s = p.r, p.s
    rs = r * s
    tB, tu, _ = target
    res = dict(zip(("z1_B_amplitude", "z1_u_amplitude", "z1_ohm",
                    "z2_B_amplitude", "z2_u_amplitude", "z2_ohm"),
                   (*_constraint_residuals(*z1, r, s, m), *_constraint_residuals(*z2, r, s, m))))

    dB, du, dE = ((a[0] - b[0], a[1] - b[1], a[2] - b[2]) for a, b in zip(z1, z2))
    res["cone_BE"] = _cone_residual(dB, dE, rs * r, m)
    dB_len, du_len = m.sqrt(_dot(dB, dB)), m.sqrt(_dot(du, du))
    if kind.restricts_u:
        res["cone_uE"] = _cone_residual(du, dE, rs * s, m)
        # The mixture's E is B x u + lam (1-lam) dB x du, so its u . E vanishes
        # only with u . (dB x du), u the target's; normalised as cone_uE.
        res["mixing_orthogonality"] = abs(_dot(tu, _cross(dB, du))) / (
            rs * s + m.sqrt(_dot(tu, tu)) * dB_len * du_len)
    # The rest needs only the lengths; on columns the differences would
    # outlive their use.
    del dB, du, dE

    below = m.positive(-lam)
    res["lambda_range"] = m.where(lam - 1.0 > below, lam - 1.0, below)

    mu = 1.0 - lam
    gap = ((a[0] * lam + b[0] * mu - t[0], a[1] * lam + b[1] * mu - t[1],
            a[2] * lam + b[2] * mu - t[2]) for a, b, t in zip(z1, z2, target))
    res["reconstruction"] = _norm_rs(*gap, r, s, m) / (1.0 + _norm_rs(*target, r, s, m))

    d_bound = m.sqrt(_excess_cap(_dot(tB, tB), _dot(tu, tu), p, m))
    prod = lam * mu * dB_len * du_len
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
    cone for `kind`, weight inside [0,1], reconstruction of the target, the
    product identity lam * (1-lam) * |B1-B2| * |u1-u2|
    = sqrt((r^2-|B|^2)(s^2-|u|^2)) tying the weight to the amplitude gaps,
    and on the restricted cone u . ((B1-B2) x (u1-u2)) = 0, u the target's.
    """
    tol = tol or DEFAULT_TOLERANCES
    res = _residuals(d.lam, d.z1, d.z2, target, p, kind, _FLOATS)
    # A NaN residual fails and is the maximum.
    failures = tuple(name for name, v in res.items() if not v <= tol.eps_mem)
    max_res = math.nan if any(map(math.isnan, res.values())) else max(res.values())
    return VerificationReport(passed=not failures, max_residual=max_res,
                              residuals=res, failures=failures)
