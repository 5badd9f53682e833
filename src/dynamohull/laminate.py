"""Constructive decomposition of relaxed-set points into constraint-set pairs.

Every point of the relaxed set is a convex combination of exactly two
constraint-set states whose difference is an admissible oscillation
direction.  ``decompose`` produces such a witness constructively; it is the
one way into the decomposition.  It checks membership once, with the
membership kernel: a point outside raises with the witness of that same
pass, and the split takes over the kernel's |B|, clipped amplitude gaps
r^2 - |B|^2, s^2 - |u|^2 and excess E - B x u, so it splits every point of
the set by one formula without forming them again.

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
core._perpendicular, on those rows only, through _Math.along, the one rule
for a unit vector with a fallback axis.  Each kernel unpacks the triples
it reads into locals once (``_residuals`` each of z1, z2 and the target)
and writes its dot and cross products out on them; the named residuals and
norms stay core's helpers, which take the components and lengths a kernel
already has.  This module imports no numpy: the block
wrapper lives in oracle, next to the campaign that calls it.
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
    _amplitude_gaps,
    _cone_residual,
    _constraint_residuals,
    _cross,
    _float,
    _from_parts,
    _norm_rs,
    _perpendicular,
    _separation_flags,
    _tuple_new,
    _witness,
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
            lam = _float(d["lambda"], "decomposition weight lambda")
            if not math.isfinite(lam):
                raise ValueError(f"non-finite decomposition weight lambda = {lam}")
            return cls(lam, Triple.from_json_dict(d["z1"]), Triple.from_json_dict(d["z2"]))
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed decomposition JSON: {exc}") from exc


def _decomposition(lam: float, z1, z2) -> Decomposition:
    """The Decomposition of a weight and two (B, u, E) states of component triples,
    built unchecked."""
    return _tuple_new(Decomposition, (lam, _from_parts(*z1), _from_parts(*z2)))


def _endpoints(B, u, bbar, ubar, lam):
    """Endpoints (B + (1-lam) bbar, u + (1-lam) ubar) and (B - lam bbar, u - lam ubar)
    of component triples, each E its own B x u, as two (B, u, E) states."""
    mu = 1.0 - lam
    bx, by, bz = B
    ux, uy, uz = u
    px, py, pz = bbar
    qx, qy, qz = ubar
    B1 = (bx + px * mu, by + py * mu, bz + pz * mu)
    u1 = (ux + qx * mu, uy + qy * mu, uz + qz * mu)
    B2 = (bx - px * lam, by - py * lam, bz - pz * lam)
    u2 = (ux - qx * lam, uy - qy * lam, uz - qz * lam)
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
    direction of the parallel split, and c = 0.  Total on floats; on columns
    it runs under np.errstate(all="ignore").
    """
    along = m.along

    def perpendicular(a, b):  # along's fallback axis, on the rows that need one
        return _perpendicular(a, b, m)

    e1 = along(B, nb, perpendicular, excess, u)
    ax, ay, az = e1
    xx, xy, xz = excess
    if kind.restricts_u:
        (bx, by, bz), (ux, uy, uz) = B, u
        nx, ny, nz = by * uz - bz * uy, bz * ux - bx * uz, bx * uy - by * ux
        nn = nx * nx + ny * ny + nz * nz
        k = m.quotient(xx * nx + xy * ny + xz * nz, nn)
        wx, wy, wz = m.patch(nn == 0.0, (k * (ay * nz - az * ny), k * (az * nx - ax * nz),
                                         k * (ax * ny - ay * nx)), _cross, e1, excess)
    else:
        wx, wy, wz = ay * xz - az * xy, az * xx - ax * xz, ax * xy - ay * xx
    # w is across e1 up to its rounding, which dominates where the excess
    # lies along B: that part is taken off, so e2 is across e1 at every row.
    k = wx * ax + wy * ay + wz * az
    wx, wy, wz = wx - k * ax, wy - k * ay, wz - k * az
    c = m.sqrt(wx * wx + wy * wy + wz * wz)
    return e1, along((wx, wy, wz), c, perpendicular, e1, u), c


def _root_direction(amp_cos, amp_sin, m: _Math):
    """(cos alpha, sin alpha) of the root alpha of A cos(alpha) + C sin(alpha) in
    [pi/2, 3pi/2], in closed form: the unit vector perpendicular to (A, C) with
    cos(alpha) <= 0, (-|C|, sign(C) A) / sqrt(A^2 + C^2).  Where C = 0 it is
    (0, 1), A = 0 included: there every alpha is a root, and alpha = pi/2 makes
    the split of a point at exact Ohm on the amplitude corner the trivial one."""
    where, quotient = m.where, m.quotient
    rho = m.sqrt(amp_cos * amp_cos + amp_sin * amp_sin)
    signed = where(amp_sin < 0.0, -amp_cos, where(amp_sin > 0.0, amp_cos, abs(amp_cos)))
    return quotient(-abs(amp_sin), rho), where(rho == 0.0, 1.0, quotient(signed, rho))


def _split(B, u, nb, rr, ss, excess, p: HullParams, kind: ConeKind, m: _Math):
    """The weight and perturbations (lam, bbar, ubar) of a relaxed-set point with
    |B| = nb, clipped amplitude gaps rr = r^2 - |B|^2 and ss = s^2 - |u|^2 and
    excess E - B x u, the membership kernel's terms, on component triples,
    floats or columns: the one split of every point, faces and exact Ohm
    included."""
    sqrt, where, positive, quotient = m.sqrt, m.where, m.positive, m.quotient
    r, s = p
    (e1x, e1y, e1z), (e2x, e2y, e2z), c = _working_plane(B, u, nb, excess, kind, m)
    # sin of the turn from bhat to uhat: the excess over its bound, at most 1.
    scale = sqrt(rr * ss)
    st = where(scale < c, 1.0, quotient(c, scale))
    ct = sqrt(positive(1.0 - st * st))
    # uhat(alpha) is bhat(alpha) = e1 cos(alpha) + e2 sin(alpha) turned by
    # arcsin(st) about nhat, so bhat x uhat = st nhat for every alpha.
    px, py, pz = e1x * ct - e2x * st, e1y * ct - e2y * st, e1z * ct - e2z * st
    qx, qy, qz = e2x * ct + e1x * st, e2y * ct + e1y * st, e2z * ct + e1z * st
    ux, uy, uz = u
    up, uq = ux * px + uy * py + uz * pz, ux * qx + uy * qy + uz * qz
    sr, sb = sqrt(rr), sqrt(ss)
    ca, sa = _root_direction(sb * nb - sr * up, -(sr * uq), m)
    # B . bhat and u . uhat at the root; each perturbation length is its own
    # side's, 2 sqrt(gap + (. hat)^2), so neither divides by the other's gap.
    xb, xu = nb * ca, up * ca + uq * sa
    b_len, u_len = 2.0 * sqrt(rr + xb * xb), 2.0 * sqrt(ss + xu * xu)
    # lam - 1/2 from the side with the longer normalised perturbation, where
    # it is well conditioned; above 1/2 both perturbations change sign, which
    # swaps the endpoints and leaves lam = 1/2 - |t|.
    t = where(b_len * s >= u_len * r, quotient(xb, b_len), quotient(xu, u_len))
    flip = where(t > 0.0, -1.0, 1.0)
    b_len, u_len = b_len * flip, u_len * flip
    bbar = ((e1x * ca + e2x * sa) * b_len, (e1y * ca + e2y * sa) * b_len,
            (e1z * ca + e2z * sa) * b_len)
    ubar = ((px * ca + qx * sa) * u_len, (py * ca + qy * sa) * u_len, (pz * ca + qz * sa) * u_len)
    return positive(0.5 - abs(t)), bbar, ubar


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
    B, u, E = z
    g1, g3, g2, values, (nb, _, _, rr, ss, excess) = _separation_flags(
        B, u, E, p, kind, (tol or DEFAULT_TOLERANCES).eps_mem, _FLOATS)
    if g1 or g3 or g2:
        w = _witness(g1, g3, g2, values, p)
        raise NotInHullError(f"point outside the relaxed set (witness {w.function}"
                             f" = {w.value})", w)
    lam, bbar, ubar = _split(B, u, nb, rr, ss, excess, p, kind, _FLOATS)
    return _decomposition(lam, *_endpoints(B, u, bbar, ubar, lam))


def _residuals(lam, z1, z2, target, p: HullParams, kind: ConeKind, m: _Math) -> dict:
    """verify_decomposition's residuals, in its key order, of the weight lam and
    the (B, u, E) states z1, z2 and target of component triples: floats, or
    numpy columns with one column per check."""
    sqrt = m.sqrt
    r, s = p
    rs = r * s
    (b1x, b1y, b1z), (u1x, u1y, u1z), (e1x, e1y, e1z) = z1
    (b2x, b2y, b2z), (u2x, u2y, u2z), (e2x, e2y, e2z) = z2
    (tbx, tby, tbz), (tux, tuy, tuz), (tex, tey, tez) = target
    a1, b1, o1 = _constraint_residuals(b1x, b1y, b1z, u1x, u1y, u1z, e1x, e1y, e1z, r, s, m)
    a2, b2, o2 = _constraint_residuals(b2x, b2y, b2z, u2x, u2y, u2z, e2x, e2y, e2z, r, s, m)
    res = {"z1_B_amplitude": a1, "z1_u_amplitude": b1, "z1_ohm": o1,
           "z2_B_amplitude": a2, "z2_u_amplitude": b2, "z2_ohm": o2}

    dbx, dby, dbz = b1x - b2x, b1y - b2y, b1z - b2z
    dux, duy, duz = u1x - u2x, u1y - u2y, u1z - u2z
    dex, dey, dez = e1x - e2x, e1y - e2y, e1z - e2z
    db_len = sqrt(dbx * dbx + dby * dby + dbz * dbz)
    du_len = sqrt(dux * dux + duy * duy + duz * duz)
    de_len = sqrt(dex * dex + dey * dey + dez * dez)
    res["cone_BE"] = _cone_residual(dbx * dex + dby * dey + dbz * dez, db_len, de_len, rs * r, m)
    if kind.restricts_u:
        res["cone_uE"] = _cone_residual(dux * dex + duy * dey + duz * dez, du_len, de_len,
                                        rs * s, m)
        # The mixture's E is B x u + lam (1-lam) dB x du, so its u . E vanishes
        # only with u . (dB x du), u the target's; normalised as cone_uE.
        res["mixing_orthogonality"] = abs(
            tux * (dby * duz - dbz * duy) + tuy * (dbz * dux - dbx * duz)
            + tuz * (dbx * duy - dby * dux)) / (
                rs * s + sqrt(tux * tux + tuy * tuy + tuz * tuz) * db_len * du_len)
    # The rest needs only the lengths; on columns the differences would
    # outlive their use.
    del dbx, dby, dbz, dux, duy, duz, dex, dey, dez, de_len

    below = m.positive(-lam)
    res["lambda_range"] = m.where(lam - 1.0 > below, lam - 1.0, below)

    # The gap lam z1 + (1-lam) z2 - target, one field at a time: on columns
    # three of its columns live at once.  Here too each column is dropped
    # after its last use.
    mu = 1.0 - lam
    gx, gy, gz = b1x * lam + b2x * mu - tbx, b1y * lam + b2y * mu - tby, b1z * lam + b2z * mu - tbz
    gb2 = gx * gx + gy * gy + gz * gz
    gx, gy, gz = u1x * lam + u2x * mu - tux, u1y * lam + u2y * mu - tuy, u1z * lam + u2z * mu - tuz
    gu2 = gx * gx + gy * gy + gz * gz
    gx, gy, gz = e1x * lam + e2x * mu - tex, e1y * lam + e2y * mu - tey, e1z * lam + e2z * mu - tez
    ge2 = gx * gx + gy * gy + gz * gz
    del gx, gy, gz
    nb2 = tbx * tbx + tby * tby + tbz * tbz
    nu2 = tux * tux + tuy * tuy + tuz * tuz
    res["reconstruction"] = _norm_rs(gb2, gu2, ge2, r, s, m) / (
        1.0 + _norm_rs(nb2, nu2, tex * tex + tey * tey + tez * tez, r, s, m))
    del gb2, gu2, ge2

    gb, gu = _amplitude_gaps(nb2, nu2, p, m)
    d_bound = sqrt(gb * gu)
    del nb2, nu2, gb, gu
    prod = lam * mu * db_len * du_len
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
    eps = (tol or DEFAULT_TOLERANCES).eps_mem
    lam, z1, z2 = d
    res = _residuals(lam, z1, z2, target, p, kind, _FLOATS)
    failures = tuple([name for name, v in res.items() if not v <= eps])
    # A NaN residual fails and is the maximum.
    values = res.values()
    max_res = math.nan if failures and any(map(math.isnan, values)) else max(values)
    return _tuple_new(VerificationReport, (not failures, max_res, res, failures))
