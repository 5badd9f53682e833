"""Constructive decomposition of relaxed-set points into constraint-set pairs.

Every point of the relaxed set is a convex combination of exactly two
constraint-set states whose difference is an admissible oscillation
direction.  ``decompose`` produces such a witness constructively; it is the
one way into the decomposition.  It checks membership once, with the
membership kernel, whose |B|^2, |u|^2 and excess E - B x u its stages take
over, and then splits every point of the set by one formula.

The perturbations Bbar, ubar lie in the working plane (e1, e2), whose
normal nhat = e2 x e1 carries the excess on the cone's normal space:
perpendicular to B, and on the stationary incompressible cone along B x u
(``_working_plane``).  Their directions differ by the turn of angle
arcsin(c / sqrt((r^2-|B|^2)(s^2-|u|^2))), capped at a right angle, about
nhat, so that Bbar x ubar is along nhat with the excess's length c, and
their angle alpha to B balances the two amplitude budgets:

    G(alpha) = sqrt(s^2-|u|^2) |B| cos(alpha)
               - sqrt(r^2-|B|^2) (u . uhat(alpha)) = 0.

In a fixed frame G is a sinusoid A cos(alpha) + C sin(alpha), so its root
in [pi/2, 3pi/2] is the direction perpendicular to (A, C) with
cos(alpha) <= 0: (cos alpha, sin alpha) = (-|C|, sign(C) A) / sqrt(A^2 + C^2),
or (0, 1) at C = 0, in closed form and without a trigonometric call.  Each perturbation length
comes from its own side, |Bbar| = 2 sqrt(r^2 - |B|^2 + |B|^2 cos^2 alpha)
and |ubar| = 2 sqrt(s^2 - |u|^2 + (u . uhat)^2), and the weight from the side
with the longer normalised perturbation, lam = 1/2 + |B| cos(alpha) / |Bbar|
or 1/2 + u . uhat / |ubar|; above 1/2 both perturbations change sign, so
lam <= 1/2.  Nothing divides by a gap, so the one formula holds on either
amplitude face and at their corner.  Where the normal vanishes (E = B x u,
or the excess along B) e2 is perpendicular to B and u and the turn is 0:
the perturbations are parallel.  ``verify_decomposition`` is the
independent residual check used by the test suite and the sampling oracle.

The decomposition (``_split``, with ``_working_plane``,
``_root_direction`` and ``_endpoints``) and the verification residuals
(``_residuals``) are written once, on component triples: ``decompose`` runs
them on Python floats, the campaign engine on blocks of (B, u, E) component
columns (``oracle._decompose_block``), so each row rounds exactly as one
point; the rows at B = 0 or with a vanishing normal take their axes from
core._perpendicular, on those rows only.  This module imports no numpy: the
block wrapper lives in oracle, next to the campaign that calls it.
"""

from __future__ import annotations

import math
from collections import namedtuple

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
    """The target point lies outside the relaxed set; witness separates it."""


class Decomposition(namedtuple("Decomposition", "lam z1 z2")):
    """Weight and endpoints of a two-state mixture: lam*z1 + (1-lam)*z2.

    The tuple (lam, z1, z2), built unchecked; from_json_dict checks the
    weight it reads.
    """

    __slots__ = ()

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


def _working_plane(B, u, nb, excess, kind: ConeKind, m: _Math):
    """The orthonormal axes (e1, e2) of the working plane and the length c of the
    excess on the cone's normal space, which is along nhat = e2 x e1.

    e1 is B / |B|, or at B = 0 an axis perpendicular to the excess and u.  On
    the shared cone the plane normal w = e1 x (E - B x u) gives e2 = w / |w|
    and c = |w|: nhat is the excess with its part along B taken off.  On the
    stationary incompressible cone the excess is taken along n = B x u, as
    w = ((E - B x u) . n / |n|^2) e1 x n, and where n = 0 as on the shared
    cone.  w's part along e1, its rounding, is taken off.  Where w = 0
    (E = B x u, or the excess along B) e2 is perpendicular to B and u, the
    direction of the parallel split, and c = 0.
    """
    at_zero = nb == 0.0
    d = m.where(at_zero, 1.0, nb)
    e1 = m.patch(at_zero, (B[0] / d, B[1] / d, B[2] / d),
                 lambda x, u: _perpendicular(x, u, m), excess, u)
    if kind.restricts_u:
        n = _cross(B, u)
        nn = _dot(n, n)
        k = m.quotient(_dot(excess, n), nn)
        w = _cross(e1, n)
        w = m.patch(nn == 0.0, (k * w[0], k * w[1], k * w[2]), _cross, e1, excess)
    else:
        w = _cross(e1, excess)
    # w is across e1 up to its rounding, which dominates where the excess
    # lies along B: that part is taken off, so e2 is across e1 at every row.
    k = _dot(w, e1)
    w = (w[0] - k * e1[0], w[1] - k * e1[1], w[2] - k * e1[2])
    c = m.sqrt(_dot(w, w))
    d = m.where(c == 0.0, 1.0, c)
    e2 = m.patch(c == 0.0, (w[0] / d, w[1] / d, w[2] / d),
                 lambda e1, u: _perpendicular(e1, u, m), e1, u)
    return e1, e2, c


def _root_direction(amp_cos, amp_sin, m: _Math):
    """(cos alpha, sin alpha) of the root alpha of A cos(alpha) + C sin(alpha) in
    [pi/2, 3pi/2], in closed form: the unit vector perpendicular to (A, C) with
    cos(alpha) <= 0, (-|C|, sign(C) A) / sqrt(A^2 + C^2).  Where C = 0 it is
    (0, 1), A = 0 included: there every alpha is a root, and alpha = pi/2 makes
    the split of a point at exact Ohm on the amplitude corner the trivial one."""
    rho = m.sqrt(amp_cos * amp_cos + amp_sin * amp_sin)
    signed = m.where(amp_sin < 0.0, -amp_cos, m.where(amp_sin > 0.0, amp_cos, abs(amp_cos)))
    return m.quotient(-abs(amp_sin), rho), m.where(rho == 0.0, 1.0, m.quotient(signed, rho))


def _split(B, u, nb2, nu2, excess, p: HullParams, kind: ConeKind, m: _Math):
    """The weight and perturbations (lam, bbar, ubar) of a relaxed-set point with
    |B|^2 = nb2, |u|^2 = nu2 and excess E - B x u, component triples, floats or
    columns: the one split of every point, faces and exact Ohm included."""
    rr, ss = m.positive(p.r * p.r - nb2), m.positive(p.s * p.s - nu2)
    nb = m.sqrt(nb2)
    e1, e2, c = _working_plane(B, u, nb, excess, kind, m)
    # sin of the turn from bhat to uhat: the excess over its bound, at most 1.
    scale = m.sqrt(rr * ss)
    st = m.where(scale < c, 1.0, m.quotient(c, scale))
    ct = m.sqrt(m.positive(1.0 - st * st))
    # uhat(alpha) is bhat(alpha) = e1 cos(alpha) + e2 sin(alpha) turned by
    # arcsin(st) about nhat, so bhat x uhat = st nhat for every alpha.
    p_vec = (e1[0] * ct - e2[0] * st, e1[1] * ct - e2[1] * st, e1[2] * ct - e2[2] * st)
    q_vec = (e2[0] * ct + e1[0] * st, e2[1] * ct + e1[1] * st, e2[2] * ct + e1[2] * st)
    up, uq = _dot(u, p_vec), _dot(u, q_vec)
    sr, sb = m.sqrt(rr), m.sqrt(ss)
    ca, sa = _root_direction(sb * nb - sr * up, -(sr * uq), m)
    # B . bhat and u . uhat at the root; each perturbation length is its own
    # side's, 2 sqrt(gap + (. hat)^2), so neither divides by the other's gap.
    xb, xu = nb * ca, up * ca + uq * sa
    b_len, u_len = 2.0 * m.sqrt(rr + xb * xb), 2.0 * m.sqrt(ss + xu * xu)
    # lam - 1/2 from the side with the longer normalised perturbation, where
    # it is well conditioned; above 1/2 both perturbations change sign, which
    # swaps the endpoints and leaves lam = 1/2 - |t|.
    t = m.where(b_len * p.s >= u_len * p.r, m.quotient(xb, b_len), m.quotient(xu, u_len))
    flip = m.where(t > 0.0, -1.0, 1.0)
    b_len, u_len = b_len * flip, u_len * flip
    bbar = ((e1[0] * ca + e2[0] * sa) * b_len, (e1[1] * ca + e2[1] * sa) * b_len,
            (e1[2] * ca + e2[2] * sa) * b_len)
    ubar = ((p_vec[0] * ca + q_vec[0] * sa) * u_len, (p_vec[1] * ca + q_vec[1] * sa) * u_len,
            (p_vec[2] * ca + q_vec[2] * sa) * u_len)
    return m.positive(0.5 - abs(t)), bbar, ubar


def decompose(z: Triple, p: HullParams, kind: ConeKind = ConeKind.NONSTATIONARY,
              tol: Tolerances | None = None) -> Decomposition:
    """Write a relaxed-set point as a two-state constraint-set mixture.

    Decompositions are not unique.  The split is the laminate at the
    closed-form root of the angle equation in [pi/2, 3pi/2], with weight at
    most 1/2, for every point of the set: on the amplitude faces, at exact
    Ohm and at B = 0 alike.  Raises NotInHullError, with the separating
    function attached, exactly for the points in_hull rejects;
    verify_decomposition judges every split.
    """
    tol = tol or DEFAULT_TOLERANCES
    B, u, E = z
    flags, (nb2, nu2, excess) = _separation_flags(B, u, E, p, kind, tol.eps_mem, _FLOATS)
    if any(flags):
        w = separation_witness(z, p, kind, tol)
        raise NotInHullError(f"point outside the relaxed set (witness {w.function}"
                             f" = {w.value})", w)
    lam, bbar, ubar = _split(B, u, nb2, nu2, excess, p, kind, _FLOATS)
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


class VerificationReport(namedtuple("VerificationReport",
                                     "passed max_residual residuals failures")):
    """Per-check residuals for a decomposition; failures are reported, not thrown.

    The tuple (passed, max_residual, residuals, failures): residuals maps
    each check to its residual and failures is the tuple of failing checks.
    """

    __slots__ = ()

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
    return VerificationReport(not failures, max_res, res, failures)
