import math
import struct

import numpy as np
import pytest

from dynamohull import (
    ConeKind,
    Decomposition,
    DecompositionError,
    HullParams,
    NotInHullError,
    SampleConfig,
    Tolerances,
    Triple,
    Vec3,
    decompose,
    in_constraint_set,
    in_hull,
    sample_first_laminate,
    sample_hull,
    sample_lambda_pair,
    verify_decomposition,
)
from _helpers import (
    ALL_KINDS,
    MIXING_GAP_POINT,
    OFF_MIXING_SPLIT,
    excess_bound,
    normalized,
    perpendicular_to,
    reference_decompose,
    reference_verify_decomposition,
    special_points,
    unit,
    vec,
)
from dynamohull.core import _FLOATS, DEFAULT_TOLERANCES, _separation_flags
from dynamohull.laminate import _root_direction, _working_plane
from dynamohull.oracle import _COLUMNS
from test_blocks import KINDS, RADII

P11 = HullParams(1.0, 1.0)


def _interior_hull_points(kind, count, p=P11, seed=42):
    cfg = SampleConfig(seed=seed, count=count, params=p, kind=kind)
    return list(sample_hull(cfg))


def _ohm(B, u):
    return Triple(B, u, B.cross(u))


def _differences(d):
    """Bbar = B1 - B2 and ubar = u1 - u2 of a decomposition."""
    return d.z1.B - d.z2.B, d.z1.u - d.z2.u


# ----------------------------------------------------- exact-Ohm splits

def test_exact_ohm_at_origin():
    d = decompose(_ohm(Vec3(0, 0, 0), Vec3(0, 0, 0)), P11)
    assert d.lam == 0.5
    assert d.z1.B.norm() == pytest.approx(1.0)
    assert d.z1.u.norm() == pytest.approx(1.0)
    # Parallel perturbations: endpoint electric fields vanish.
    assert d.z1.E.norm() == pytest.approx(0.0, abs=1e-15)
    assert d.z2.B == -d.z1.B
    assert (d.combine() - Triple(Vec3(0, 0, 0), Vec3(0, 0, 0), Vec3(0, 0, 0))).norm() < 1e-15
    rep = verify_decomposition(d, Triple(Vec3(0, 0, 0), Vec3(0, 0, 0), Vec3(0, 0, 0)), P11)
    assert rep.passed


def test_exact_ohm_full_amplitude_is_trivial():
    B = Vec3(0.6, 0.8, 0)
    u = Vec3(0, 0, 1)
    d = decompose(_ohm(B, u), P11)
    assert d.lam == 0.5
    assert d.z1 == d.z2
    assert d.z1 == Triple(B, u, B.cross(u))


def test_exact_ohm_pythagoras_case():
    # Perpendicular perturbations restore the amplitudes by Pythagoras.
    B = Vec3(0.6, 0, 0)
    u = Vec3(0, 0.8, 0)
    d = decompose(_ohm(B, u), P11)
    bbar = d.z1.B - B
    ubar = d.z1.u - u
    assert bbar.norm() == pytest.approx(0.8)
    assert ubar.norm() == pytest.approx(0.6)
    assert abs(bbar.dot(B)) < 1e-12
    assert abs(ubar.dot(u)) < 1e-12
    assert bbar.cross(ubar).norm() < 1e-12
    for zi in (d.z1, d.z2):
        assert zi.B.norm() == pytest.approx(1.0)
        assert zi.u.norm() == pytest.approx(1.0)


def test_exact_ohm_rejects_oversized_amplitudes():
    with pytest.raises(NotInHullError):
        decompose(_ohm(Vec3(1.5, 0, 0), Vec3(0, 0, 0)), P11)
    with pytest.raises(NotInHullError):
        decompose(_ohm(Vec3(0, 0, 0), Vec3(0, 1.5, 0)), P11)


def test_exact_ohm_valid_for_every_kind():
    rng = np.random.default_rng(21)
    for _ in range(100):
        B = vec(rng, 0.55)
        u = vec(rng, 0.55)
        target = Triple(B, u, B.cross(u))
        for kind in ALL_KINDS:
            d = decompose(target, P11, kind)
            rep = verify_decomposition(d, target, P11, kind)
            assert rep.passed, (kind, rep.failures, rep.residuals)


# ----------------------------------------------- the interior conditions
#
# The laminate conditions, read off decompose's endpoints with
# Bbar = B1 - B2 and ubar = u1 - u2.

def test_conditions_at_zero_fields():
    z = Triple(Vec3(0, 0, 0), Vec3(0, 0, 0), Vec3(0, 0, 0.5))
    bbar, ubar = _differences(decompose(z, P11))
    assert bbar.norm() == pytest.approx(2.0)
    assert ubar.norm() == pytest.approx(2.0)
    # bhat x uhat is the normalised excess Ebar = (E - B x u) / sqrt(rr ss).
    mix = bbar.cross(ubar)
    assert list(mix / (bbar.norm() * ubar.norm())) == pytest.approx([0, 0, 0.5])
    # sin of the angle between the perturbations equals the excess fraction.
    sin_mix = mix.norm() / (bbar.norm() * ubar.norm())
    assert sin_mix == pytest.approx(0.5, abs=1e-12)
    # Oriented so that their cross product reproduces the excess direction.
    assert (mix / mix.norm() - Vec3(0, 0, 1)).norm() < 1e-12


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_conditions_equations_hold(kind):
    p = HullParams(1.2, 0.8)
    checked = 0
    for z in _interior_hull_points(kind, 300, p):
        c = (z.E - z.B.cross(z.u)).norm()
        if c < 1e-9:
            continue
        bbar, ubar = _differences(decompose(z, p, kind))
        rr = p.r * p.r - z.B.norm2()
        ss = p.s * p.s - z.u.norm2()
        d_bound = math.sqrt(rr * ss)

        # excess reproduction (vector identity)
        rebuilt = z.B.cross(z.u) + bbar.cross(ubar) * (d_bound / (bbar.norm() * ubar.norm()))
        assert (rebuilt - z.E).norm() <= 1e-8 * (1.0 + z.E.norm())

        # amplitude scalings
        assert bbar.norm2() * ss == pytest.approx(ubar.norm2() * rr, rel=1e-10, abs=1e-12)
        sin2 = 1.0 - (z.B.dot(bbar) / (z.B.norm() * bbar.norm())) ** 2 if z.B.norm() > 0 else 1.0
        expected = 4.0 * (p.r * p.r - z.B.norm2() * min(1.0, max(0.0, sin2)))
        assert bbar.norm2() == pytest.approx(expected, rel=1e-8)

        # angle balance between the two amplitude budgets
        lhs = z.B.dot(bbar) / bbar.norm() if bbar.norm() > 0 else 0.0
        rhs = math.sqrt(rr / ss) * (z.u.dot(ubar) / ubar.norm() if ubar.norm() > 0 else 0.0)
        assert lhs == pytest.approx(rhs, abs=1e-8 * (1.0 + abs(lhs)))

        # mixing direction stays orthogonal to B (and to u when restricted)
        mix = bbar.cross(ubar)
        assert abs(z.B.dot(mix)) <= 1e-9 * (1.0 + z.B.norm() * mix.norm())
        if kind.restricts_u:
            assert abs(z.u.dot(mix)) <= 1e-9 * (1.0 + z.u.norm() * mix.norm())
        checked += 1
    assert checked > 200


def test_conditions_degenerate_call():
    # No exact-Ohm threshold: at E = B x u the perturbations are parallel and
    # lam = 1/2, and any excess, down to 5e-13 rs, turns them apart so that
    # lam (1 - lam) bbar x ubar is that excess (lam < 1/2 here).
    B = Vec3(0.5, 0, 0)
    u = Vec3(0, 0.5, 0)
    for p in (P11, HullParams(1e-3, 1e3)):
        Bp, up = B * p.r, u * p.s
        for excess in (0.0, 0.5, 2.0, 1e3):
            gap = Vec3(0, 0, excess * 1e-12 * p.r * p.s)
            z = Triple(Bp, up, Bp.cross(up) + gap)
            d = decompose(z, p)
            bbar, ubar = _differences(d)
            mix = bbar.cross(ubar) * (d.lam * (1.0 - d.lam))
            assert (mix - gap).norm() <= 1e-15 * p.r * p.s, (p, excess)
            assert (d.lam == 0.5) is (excess == 0.0), (p, excess)
            assert d.lam <= 0.5
            assert verify_decomposition(d, z, p).passed


def test_conditions_boundary_call_is_not_in_hull():
    # Full magnetic amplitude with leftover excess: no interior solution.
    z = Triple(Vec3(1, 0, 0), Vec3(0, 0.5, 0), Vec3(0, 0, 0.5 + 1e-3))
    with pytest.raises(NotInHullError):
        decompose(z, P11)


def test_conditions_outside_hull():
    z = Triple(Vec3(0, 0, 0), Vec3(0, 0, 0), Vec3(0, 0, 2.0))
    with pytest.raises(NotInHullError):
        decompose(z, P11)


# -------------------------------------------------- the angle equation

def _angle_equation(z, p, kind):
    """The amplitudes (A, C) of the angle equation G(alpha) = A cos(alpha) +
    C sin(alpha) of an interior point, on decompose's working plane:
    G = sqrt(ss) |B| cos(alpha) - sqrt(rr) u . uhat(alpha), with uhat(alpha)
    bhat(alpha) turned by arcsin(c / sqrt(rr ss)) about e2 x e1."""
    B, u, E = z
    _, (nb2, nu2, excess), _ = _separation_flags(B, u, E, p, kind,
                                                DEFAULT_TOLERANCES.eps_mem, _FLOATS)
    rr, ss = p.r * p.r - nb2, p.s * p.s - nu2
    nb = math.sqrt(nb2)
    e1, e2, c = _working_plane(B, u, nb, excess, kind, _FLOATS)
    e1, e2 = Vec3(*e1), Vec3(*e2)
    st = min(1.0, c / math.sqrt(rr * ss))
    ct = math.sqrt(1.0 - st * st)
    up, uq = u.dot(e1 * ct - e2 * st), u.dot(e2 * ct + e1 * st)
    return math.sqrt(ss) * nb - math.sqrt(rr) * up, -math.sqrt(rr) * uq


def test_root_direction_matches_the_atan2_root():
    # The closed-form root direction (-|C|, sign(C) A) / sqrt(A^2 + C^2)
    # against the atan2 root pi/2 + (atan2(A, -C) - pi/2) mod pi, on random
    # rows over six decades, then C = 0 (A of either sign, zeros of either
    # sign), where the atan2 root is pi/2, and A = C = 0, where every alpha
    # is a root and the convention is pi/2 too.
    rng = np.random.default_rng(31)
    n = 4096
    a, c = (rng.normal(size=n) * 10.0 ** rng.uniform(-3.0, 3.0, n) for _ in range(2))
    a = np.concatenate((a, [1.5, -1.5, 2.0, -2.0, 0.0, 0.0, -0.0, -0.0]))
    c = np.concatenate((c, [0.0, 0.0, -0.0, -0.0, 0.0, -0.0, 0.0, -0.0]))
    ca, sa = _root_direction(a, c, _COLUMNS)
    alpha = np.array([0.5 * math.pi + (math.atan2(x, -y) - 0.5 * math.pi) % math.pi
                      if x or y else 0.5 * math.pi for x, y in zip(a.tolist(), c.tolist())])
    assert np.abs(ca - np.cos(alpha)).max() <= 1e-15
    assert np.abs(sa - np.sin(alpha)).max() <= 1e-15
    assert (ca <= 0.0).all()
    assert (np.abs(a * ca + c * sa) <= 1e-15 * np.hypot(a, c)).all()
    assert (ca[n:] == 0.0).all() and (sa[n:] == 1.0).all()
    angles = np.array([math.atan2(y, x) % math.tau for x, y in zip(ca.tolist(), sa.tolist())])
    assert ((0.5 * math.pi <= angles) & (angles <= 1.5 * math.pi)).all()
    assert np.abs(angles - alpha).max() <= 1e-15 * math.pi
    # The float path runs the same body to the same bits.
    floats = [_root_direction(x, y, _FLOATS) for x, y in zip(a.tolist(), c.tolist())]
    assert (np.array(floats).view(np.uint64) == np.column_stack((ca, sa)).view(np.uint64)).all()


@pytest.mark.parametrize("kind", [ConeKind.NONSTATIONARY, ConeKind.STATIONARY_INCOMPRESSIBLE])
def test_chosen_angle_is_the_bracketed_root(kind):
    # The solver's alpha must be a root of G inside [pi/2, 3pi/2], to
    # rounding relative to the sinusoid's amplitude |A| + |C|.
    checked = 0
    for z in _interior_hull_points(kind, 1100, seed=25):
        if z.B.norm() == 0.0 or (z.E - z.B.cross(z.u)).norm() <= 1e-12:
            continue
        amp_cos, amp_sin = _angle_equation(z, P11, kind)
        ca, sa = _root_direction(amp_cos, amp_sin, _FLOATS)
        alpha = math.atan2(sa, ca) % math.tau
        assert 0.5 * math.pi <= alpha <= 1.5 * math.pi
        gap = amp_cos * math.cos(alpha) + amp_sin * math.sin(alpha)
        assert abs(gap) <= 1e-15 * (abs(amp_cos) + abs(amp_sin))
        checked += 1
    assert checked >= 1000


# ------------------------------------------------------------ decompose

def test_decompose_constraint_set_point_is_degenerate():
    B = Vec3(0.6, 0.8, 0)
    u = Vec3(0, 0, 1)
    z = Triple(B, u, B.cross(u))
    d = decompose(z, P11)
    assert d.z1 == d.z2 == z
    rep = verify_decomposition(d, z, P11)
    assert rep.passed


def test_decompose_zero_fields_with_excess():
    z = Triple(Vec3(0, 0, 0), Vec3(0, 0, 0), Vec3(0, 0, 0.5))
    d = decompose(z, P11)
    assert d.lam == pytest.approx(0.5)
    rep = verify_decomposition(d, z, P11)
    assert rep.passed
    assert rep.max_residual < 1e-12
    assert in_constraint_set(d.z1, P11)
    assert in_constraint_set(d.z2, P11)


@pytest.mark.parametrize("tilt", [0.0, 1e-13, 1e-11, 1e-9, 1e-6])
def test_decompose_zero_B_with_velocity_along_the_excess(tilt):
    # With B = 0 the frame axis is free; the root makes uhat perpendicular to
    # u even when u is (nearly) parallel to the excess, where u x Ebar is
    # rounding noise.
    rng = np.random.default_rng(26)
    for p in (P11, HullParams(0.5, 2.0), HullParams(1e-3, 1e3)):
        for _ in range(40):
            u = unit(rng) * (p.s * rng.uniform(0.1, 1.0))
            e = normalized(normalized(u) + perpendicular_to(u) * tilt)
            excess = e * (excess_bound(Vec3(0, 0, 0), u, p) * rng.uniform(0.1, 1.0))
            z = Triple(Vec3(0, 0, 0), u, excess)
            rep = verify_decomposition(decompose(z, p), z, p)
            assert rep.passed, (p, z, rep.failures)


def test_decompose_outside_hull_reports_witness():
    z = Triple(Vec3(0, 0, 0), Vec3(0, 0, 0), Vec3(0, 0, 2.0))
    with pytest.raises(NotInHullError) as err:
        decompose(z, P11)
    w = err.value.witness
    assert w is not None
    assert w.function == "g2"
    assert w.value == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_decompose_round_trip(kind):
    p = HullParams(1.4, 0.6)
    for z in _interior_hull_points(kind, 500, p, seed=24):
        d = decompose(z, p, kind)
        assert 0.0 <= d.lam <= 1.0
        rep = verify_decomposition(d, z, p, kind)
        assert rep.passed, (z, rep.failures, rep.residuals)
        assert rep.max_residual <= 1e-9


def test_decompose_near_boundary_ohm_point():
    nb = 1.0 - 1e-13
    B = Vec3(nb, 0, 0)
    u = Vec3(0, 0.3, 0)
    z = Triple(B, u, B.cross(u))
    d = decompose(z, P11)
    assert verify_decomposition(d, z, P11).passed


def test_decompose_weight_amplitude_identity():
    # lam*(1-lam)*|B1-B2|*|u1-u2| must reproduce the excess bound exactly.
    for kind in (ConeKind.NONSTATIONARY, ConeKind.STATIONARY_INCOMPRESSIBLE):
        for z in _interior_hull_points(kind, 400, seed=25):
            d = decompose(z, P11, kind)
            rep = verify_decomposition(d, z, P11, kind)
            assert rep.residuals["weight_amplitude_identity"] <= 1e-9
            dz = d.z1 - d.z2
            prod = d.lam * (1.0 - d.lam) * dz.B.norm() * dz.u.norm()
            assert prod == pytest.approx(excess_bound(z.B, z.u, P11), abs=1e-9)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_decompose_weight_is_at_most_one_half(kind):
    # lam = 1/2 - |t|: where the side the weight is taken from gives more
    # than 1/2, both perturbations change sign.  Every point but the one
    # outside the set is split, on the faces and at exact Ohm too.
    decomposed = 0
    for r in (1e-6, 1.0, 1e6):
        for s in (1e-6, 1.0, 1e6):
            p = HullParams(r, s)
            cfg = SampleConfig(seed=29, count=3000, params=p, kind=kind)
            for z in [*sample_hull(cfg), *special_points(p).values()]:
                try:
                    d = decompose(z, p, kind)
                except NotInHullError:
                    continue
                assert d.lam <= 0.5, (r, s, z, d.lam)
                decomposed += 1
    assert decomposed == 9 * (3000 + len(special_points(P11)) - 1)


def test_decompose_stationary_mixing_orthogonality():
    for z in _interior_hull_points(ConeKind.STATIONARY_INCOMPRESSIBLE, 400, seed=26):
        d = decompose(z, P11, ConeKind.STATIONARY_INCOMPRESSIBLE)
        dz = d.z1 - d.z2
        mix = dz.B.cross(dz.u)
        assert abs(z.u.dot(mix)) <= 1e-9 * (1.0 + z.u.norm() * dz.B.norm() * dz.u.norm())


# ---------------------------------------------------------- verification

def test_verify_fails_a_split_off_mixing_orthogonality():
    # in_hull accepts the point, and every other check of the split passes.
    # decompose now takes the excess along B x u: its own split keeps mixing
    # orthogonality and misses the part of the excess along u instead.
    kind = ConeKind.STATIONARY_INCOMPRESSIBLE
    z = MIXING_GAP_POINT
    assert in_hull(z, P11, kind)
    rep = verify_decomposition(OFF_MIXING_SPLIT, z, P11, kind)
    assert rep.failures == ("mixing_orthogonality",)
    assert rep.max_residual == rep.residuals["mixing_orthogonality"] > 1e-9
    rep = verify_decomposition(decompose(z, P11, kind), z, P11, kind)
    assert rep.failures == ("reconstruction",)
    assert rep.residuals["mixing_orthogonality"] <= 1e-15


def test_verify_detects_tampered_weight():
    z = Triple(Vec3(0.2, 0.1, 0), Vec3(0, 0.3, 0.1), Vec3(0, 0, 0))
    z = Triple(z.B, z.u, z.B.cross(z.u))
    d = decompose(z, P11)
    bad = Decomposition(min(1.0, d.lam + 0.1), d.z1, d.z2)
    rep = verify_decomposition(bad, z, P11)
    assert not rep.passed
    assert "reconstruction" in rep.failures


def test_verify_detects_tampered_endpoint():
    z = Triple(Vec3(0, 0, 0), Vec3(0, 0, 0), Vec3(0, 0, 0.5))
    d = decompose(z, P11)
    tampered_z1 = Triple(d.z1.B, d.z1.u, d.z1.E + Vec3(0.01, 0, 0))
    bad = Decomposition(d.lam, tampered_z1, d.z2)
    rep = verify_decomposition(bad, z, P11)
    assert not rep.passed
    assert "z1_ohm" in rep.failures


def test_verify_detects_wrong_cone():
    # Two genuine constraint-set states whose difference is NOT in the cone.
    B1, u1 = Vec3(1, 0, 0), Vec3(0, 1, 0)
    B2, u2 = Vec3(0, 1, 0), Vec3(0, 0, 1)
    z1 = Triple(B1, u1, B1.cross(u1))
    z2 = Triple(B2, u2, B2.cross(u2))
    dz = z1 - z2
    assert abs(dz.B.dot(dz.E)) > 0.1
    target = z1 * 0.5 + z2 * 0.5
    rep = verify_decomposition(Decomposition(0.5, z1, z2), target, P11)
    assert not rep.passed
    assert "cone_BE" in rep.failures


def test_verify_reports_lambda_out_of_range():
    z = Triple(Vec3(1, 0, 0), Vec3(0, 1, 0), Vec3(0, 0, 1))
    rep = verify_decomposition(Decomposition(1.2, z, z), z, P11)
    assert "lambda_range" in rep.failures


def test_verify_json_shape():
    z = Triple(Vec3(0, 0, 0), Vec3(0, 0, 0), Vec3(0, 0, 0.5))
    d = decompose(z, P11)
    rep = verify_decomposition(d, z, P11)
    payload = d.to_json_dict(residuals=rep.residuals)
    assert set(payload) == {"lambda", "z1", "z2", "residuals"}
    round_trip = Decomposition.from_json_dict(payload)
    assert round_trip.lam == d.lam
    assert round_trip.z1 == d.z1


def test_verify_fails_a_nan_weight():
    z = Triple(Vec3(0.2, 0.1, 0), Vec3(0, 0.3, 0.1), Vec3(0, 0, 0.05))
    d = decompose(z, P11)
    rep = verify_decomposition(Decomposition(math.nan, d.z1, d.z2), z, P11)
    assert not rep.passed
    assert math.isnan(rep.max_residual)
    assert set(rep.failures) == {"reconstruction", "weight_amplitude_identity"}
    payload = d.to_json_dict()
    for lam in (math.nan, math.inf, -math.inf):
        payload["lambda"] = lam
        with pytest.raises(ValueError, match="non-finite"):
            Decomposition.from_json_dict(payload)


# ----------------------------- the float path against Vec3 arithmetic

def _leaves(obj):
    """The fields of a result, in order, with every float as its uint64 bits."""
    if isinstance(obj, float):
        return [struct.unpack("<Q", struct.pack("<d", obj))[0]]
    if isinstance(obj, dict):
        return [*obj, *(x for v in obj.values() for x in _leaves(v))]
    if isinstance(obj, tuple):
        return [type(obj), *(x for v in obj for x in _leaves(v))]
    return [obj]


def _outcome(fn, *args):
    """_leaves of fn's result, or the type, message and witness it raised."""
    try:
        return _leaves(fn(*args))
    except DecompositionError as exc:
        return [type(exc), str(exc), *_leaves(exc.witness)]


@pytest.mark.parametrize("kind", KINDS)
def test_scalar_path_matches_vec3_reference_bit_for_bit(kind):
    tight = Tolerances(eps_mem=1e-15)
    raised = failed = 0
    for ri, r in enumerate(RADII):
        for si, s in enumerate(RADII):
            p = HullParams(r, s)
            cfg = SampleConfig(seed=ri * 7 + si, count=20, params=p, kind=kind)
            points = [*sample_hull(cfg), *sample_first_laminate(cfg),
                      *special_points(p).values()]
            for z, other in zip(points, points[1:] + points[:1]):
                assert _outcome(decompose, z, p, kind) == _outcome(
                    reference_decompose, z, p, kind), (r, s, z)
                try:
                    d = decompose(z, p, kind)
                except DecompositionError:
                    raised += 1
                    continue
                # The decomposition's own target, another point, and a slack
                # below rounding: passing and failing reports alike.
                for target, tol in ((z, None), (other, None), (z, tight)):
                    rep = verify_decomposition(d, target, p, kind, tol)
                    assert _leaves(rep) == _leaves(
                        reference_verify_decomposition(d, target, p, kind, tol)), (r, s, z)
                    failed += not rep.passed
    # Only the special point outside the set raises.
    assert raised == 49 and failed >= 49 * 40


# ------------------------------------- mixtures of sampled pairs (inverse)

@pytest.mark.parametrize("kind", [ConeKind.NONSTATIONARY,
                                  ConeKind.STATIONARY_INCOMPRESSIBLE])
def test_pair_combinations_satisfy_interior_conditions(kind):
    # Any convex mixture of a cone-compatible constraint-set pair must hit
    # the same perturbation equations the solver enforces, with
    # Bbar = B1 - B2 and ubar = u1 - u2.
    rng = np.random.default_rng(27)
    cfg = SampleConfig(seed=28, count=400, params=P11, kind=kind)
    checked = 0
    for z1, z2 in sample_lambda_pair(cfg):
        lam = rng.uniform(0.05, 0.95)
        z = z1 * lam + z2 * (1.0 - lam)
        bbar = z1.B - z2.B
        ubar = z1.u - z2.u
        if bbar.norm() < 1e-6 or ubar.norm() < 1e-6:
            continue
        rr = 1.0 - z.B.norm2()
        ss = 1.0 - z.u.norm2()
        if rr < 1e-6 or ss < 1e-6:
            continue

        # amplitude scalings
        assert bbar.norm2() * ss == pytest.approx(ubar.norm2() * rr, rel=1e-8, abs=1e-10)
        cos_b = z.B.dot(bbar) / (z.B.norm() * bbar.norm()) if z.B.norm() > 0 else 0.0
        sin2 = 1.0 - cos_b * cos_b
        assert bbar.norm2() == pytest.approx(4.0 * (1.0 - z.B.norm2() * sin2), rel=1e-8)

        # angle balance
        lhs = z.B.dot(bbar) / bbar.norm()
        rhs = math.sqrt(rr / ss) * z.u.dot(ubar) / ubar.norm()
        assert lhs == pytest.approx(rhs, abs=1e-8 * (1.0 + abs(lhs)))

        # mixing orthogonality and excess reproduction
        mix = bbar.cross(ubar)
        assert abs(z.B.dot(mix)) <= 1e-8 * (1.0 + z.B.norm() * mix.norm())
        d_bound = excess_bound(z.B, z.u, P11)
        rebuilt = z.B.cross(z.u) + mix * (d_bound / (bbar.norm() * ubar.norm()))
        assert (rebuilt - z.E).norm() <= 1e-8 * (1.0 + z.E.norm())

        # and the mixture is in the hull, never outside
        assert in_hull(z, P11, kind)
        checked += 1
    # The restricted cone's second plane always passes through u1 itself, so
    # about half of those pairs carry ubar = 0 and are filtered above.
    assert checked > (300 if not kind.restricts_u else 150)


def test_decompose_respects_tolerance_argument():
    tol = Tolerances(eps_mem=1e-6)
    z = Triple(Vec3(0.5, 0, 0), Vec3(0, 0.5, 0), Vec3(0, 0, 0.625))
    d = decompose(z, P11, ConeKind.NONSTATIONARY, tol)
    assert verify_decomposition(d, z, P11, ConeKind.NONSTATIONARY, tol).passed


@pytest.mark.parametrize("which", ["B", "u"])
def test_decompose_just_inside_amplitude_boundary(which):
    # Amplitude gaps of 2e-9 to 1e-5 on one side and 0.84 on the other: each
    # perturbation length is taken from its own side's gap and the weight
    # from the longer side, so no residual grows with the ratio of the gaps.
    rng = np.random.default_rng(62)
    for gap in (2e-9, 1e-7, 1e-5):
        for _ in range(20):
            full = math.sqrt(1.0 - gap)
            if which == "B":
                B = Vec3(*(full * v for v in _unit(rng)))
                u = Vec3(*(0.4 * v for v in _unit(rng)))
            else:
                B = Vec3(*(0.4 * v for v in _unit(rng)))
                u = Vec3(*(full * v for v in _unit(rng)))
            d_bound = excess_bound(B, u, P11)
            e = B.cross(u)
            perp = B if which == "u" else u
            ex = perpendicular_to(B)
            z = Triple(B, u, e + ex * (0.5 * d_bound))
            d = decompose(z, P11)
            rep = verify_decomposition(d, z, P11)
            assert rep.passed, (which, gap, rep.residuals)
            assert rep.max_residual <= 1e-9


def _unit(rng):
    while True:
        v = rng.uniform(-1, 1, 3)
        n = float(np.linalg.norm(v))
        if n > 1e-3:
            return (v[0] / n, v[1] / n, v[2] / n)
