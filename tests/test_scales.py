"""One normalisation at every scale.

The relaxed set is homogeneous under (B, u, E) -> (B/r, u/s, E/(rs)), so
membership, separation, decomposition, verification and pair sampling must
give the same verdicts for a point built in normalised coordinates whatever
radii it is scaled to, including radii far from 1 and r/s up to 1e12.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dynamohull import (
    ConeKind,
    Decomposition,
    HullParams,
    NotInHullError,
    SampleConfig,
    Triple,
    Vec3,
    decompose,
    eval_g1,
    eval_g2,
    eval_g3,
    in_constraint_set,
    in_hull,
    plane_wave_conditions,
    sample_K,
    sample_hull,
    sample_lambda_pair,
    separation_witness,
    two_sided_hull_check,
    verify_decomposition,
    wave_vector_for,
)
from dynamohull.oracle import _sample_row
from _helpers import (
    ALL_KINDS,
    reference_g_values,
    reference_separating_function,
    scaled_point,
    special_points,
)

RADII = (1e-6, 1e-3, 1e-2, 1.0, 1e2, 1e3, 1e6)


SCALE_KINDS = (ConeKind.NONSTATIONARY, ConeKind.STATIONARY_INCOMPRESSIBLE)
LOG_OUTSIDE = (math.log(1.01), math.log(100.0))


@pytest.mark.parametrize("kind", SCALE_KINDS)
def test_verdicts_and_decompositions_at_every_scale(kind):
    problems = []
    for ri, r in enumerate(RADII):
        for si, s in enumerate(RADII):
            p = HullParams(r, s)
            rng = np.random.default_rng([70, ri, si])
            for _ in range(6):
                z = scaled_point(rng, kind, rng.uniform(0.0, 0.99), r, s)
                w = separation_witness(z, p, kind)
                if not in_hull(z, p, kind) or w.separates:
                    problems.append(("inside point rejected", r, s, w.function))
                    continue
                rep = verify_decomposition(decompose(z, p, kind), z, p, kind)
                if not rep.passed:
                    problems.append(("decomposition fails", r, s, rep.failures))
            for _ in range(6):
                z = scaled_point(rng, kind, math.exp(rng.uniform(*LOG_OUTSIDE)), r, s)
                if in_hull(z, p, kind) or not separation_witness(z, p, kind).separates:
                    problems.append(("outside point accepted", r, s))
    assert not problems, problems[:10]


def threshold_points(p: HullParams, eps: float, d: float) -> list[Triple]:
    """Points a relative distance d from each threshold of the membership kernel:
    |B| = r (1 + eps), |u| = s (1 + eps), the floors eps r^2 s of g1 and
    eps r s^2 of g3, and the excess cap (r^2 - |B|^2)(s^2 - |u|^2) + eps r^2 s^2."""
    r, s = p.r, p.s
    rs = r * s
    half_B, half_u = Vec3(0.5 * r, 0.0, 0.0), Vec3(0.0, 0.5 * s, 0.0)
    B = Vec3(r * (1.0 + eps) * (1.0 + d), 0.0, 0.0)
    u = Vec3(0.0, s * (1.0 + eps) * (1.0 + d), 0.0)
    points = [Triple(B, half_u, B.cross(half_u)), Triple(half_B, u, half_B.cross(u))]
    # B . E = eps (r^2 s + |B||E|) at x = 2 eps (rs + |E| / 2), and likewise
    # u . E at y; |E| hardly depends on x, y, so a few fixed-point steps converge.
    x = y = 0.0
    for _ in range(4):
        x = 2.0 * eps * (rs + 0.5 * math.hypot(x, 0.25 * rs))
        y = 2.0 * eps * (rs + 0.5 * math.hypot(y, 0.25 * rs))
    points += [Triple(half_B, half_u, Vec3(x * (1.0 + d), 0.0, 0.25 * rs)),
               Triple(half_B, half_u, Vec3(0.0, y * (1.0 + d), 0.25 * rs))]
    B, u = Vec3(0.6 * r, 0.0, 0.0), Vec3(0.0, 0.3 * s, 0.0)
    cap = (r * r - B.norm2()) * (s * s - u.norm2()) + eps * (r * r * s * s)
    return points + [Triple(B, u, B.cross(u) + Vec3(0.0, 0.0, math.sqrt(cap) * (1.0 + d)))]


def slack_band_points(p: HullParams) -> list[Triple]:
    """The three families of points in the eps_mem slack band that in_hull
    accepts and decompose + verify_decomposition need not split, at radii p."""
    r, s = p.r, p.s

    def point(B, u, excess, ohm=1.0):
        B, u = Vec3(*B) * r, Vec3(*u) * s
        return Triple(B, u, B.cross(u) * ohm + Vec3(*excess) * (r * s))

    return [point((1, 0, 0), (0, 0.5, 0), (0, 0, 1e-6)),        # amplitude boundary
            point((0.3, 0, 0), (0, 1, 0), (0, 0, 1e-5)),
            point((1e-5, 0, 0), (0, 0.5, 0), (1e-5, 0, 5e-6)),  # tiny B parallel to the excess
            point((0.5, 0, 0), (0, 0.5, 0), (2.4e-9, 0, 0.3)),  # cone slack
            point((0.5, 0, 0), (0, 0.5, 0), (0, 2e-9, 0), ohm=1.5)]


@pytest.mark.parametrize("kind", SCALE_KINDS)
def test_membership_matches_reference_kernel(kind):
    # The membership kernel against the unmerged reference_separating_function,
    # on both sides of every threshold within 1e-12 relative.
    eps = 1e-9
    for ri, r in enumerate(RADII):
        for si, s in enumerate(RADII):
            p = HullParams(r, s)
            rng = np.random.default_rng([73, ri, si])
            points = [scaled_point(rng, kind, f, r, s) for f in
                      (*rng.uniform(0.0, 1.0, 6), 1.0, *np.exp(rng.uniform(0.0, 4.0, 6)))]
            points += [*special_points(p).values(), *slack_band_points(p)]
            below, above = threshold_points(p, eps, -1e-12), threshold_points(p, eps, 1e-12)
            # Each pair straddles its threshold as the reference kernel sees it;
            # u . E is no condition of the shared cone.
            straddle = [(reference_separating_function(a, p, kind, eps) is None,
                         reference_separating_function(b, p, kind, eps) is None)
                        for a, b in zip(below, above)]
            expected = [(True, False)] * 5
            expected[3] = (True, not kind.restricts_u)
            assert straddle == expected, (r, s, straddle)
            for z in points + below + above:
                function = reference_separating_function(z, p, kind, eps)
                assert separation_witness(z, p, kind).function == function, (r, s, z)
                assert in_hull(z, p, kind) == (function is None), (r, s, z)


def separation_grid(kind):
    """(p, z) at the 49 radius pairs: per pair two members and two points each
    that g2, g1 and (on the stationary incompressible cone) g3 separate, B . E
    and u . E pushed off zero by 1e-2 |b|^2 and 1e-2 |v_perp|^2 normalised,
    v_perp the part of v = u/s across B."""
    for ri, r in enumerate(RADII):
        for si, s in enumerate(RADII):
            p = HullParams(r, s)
            rng = np.random.default_rng([74, ri, si])
            fractions = (*rng.uniform(0.0, 0.99, 2), *np.exp(rng.uniform(*LOG_OUTSIDE, 2)))
            points = [scaled_point(rng, kind, f, r, s) for f in fractions]
            for _ in range(2):
                z = scaled_point(rng, kind, rng.uniform(0.0, 0.99), r, s)
                points.append(Triple(z.B, z.u, z.E + z.B * (1e-2 * s)))
                u_perp = z.u - z.B * (z.u.dot(z.B) / z.B.norm2())
                points.append(Triple(z.B, z.u, z.E + u_perp * (1e-2 * r)))
            for z in points:
                yield p, z


def hexes(*values) -> list:
    """The bits of each float, -0.0 and NaN included."""
    return [float(x).hex() for x in values]


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_witness_and_g_values_match_the_float_reference(kind):
    # eval_g1/g2/g3 and the witness's value, which takes the membership
    # kernel's own terms, against the same formulas on the components.
    seen = set()
    for p, z in separation_grid(kind):
        ref = reference_g_values(z, p)
        assert hexes(eval_g1(z), eval_g2(z, p), eval_g3(z)) == hexes(*ref), (p, z)
        w = separation_witness(z, p, kind)
        if w.separates:
            seen.add(w.function)
            assert hexes(w.value) == hexes(ref[("g1", "g2", "g3").index(w.function)]), (p, z)
    assert seen == ({"g1", "g2", "g3"} if kind.restricts_u else {"g1", "g2"})


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_decompose_and_sample_rows_carry_the_per_point_values(kind):
    # decompose raises with separation_witness's record, and a sample row
    # holds in_hull's verdict and the eval_g* values, bit for bit.
    raised = 0
    for p, z in separation_grid(kind):
        w = separation_witness(z, p, kind)
        try:
            decompose(z, p, kind)
        except NotInHullError as exc:
            raised += 1
            assert exc.witness.function == w.function and hexes(exc.witness.value) == hexes(w.value)
            assert str(exc) == f"point outside the relaxed set (witness {w.function} = {w.value})"
        else:
            assert not w.separates, (p, z)
        row = _sample_row(z, p, kind, None)
        assert row["in_hull"] is in_hull(z, p, kind)
        assert hexes(row["g1"], row["g2"], row["g3"]) == hexes(eval_g1(z), eval_g2(z, p),
                                                               eval_g3(z)), (p, z)
    assert raised >= 49 * (6 if kind.restricts_u else 4)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(log_r=st.floats(-6.0, 6.0), log_s=st.floats(-6.0, 6.0),
       fraction=st.floats(0.0, 0.99) | st.floats(1.01, 100.0),
       restricted=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_membership_witness_and_decomposition_agree(log_r, log_s, fraction,
                                                    restricted, seed):
    r, s = 10.0 ** log_r, 10.0 ** log_s
    p = HullParams(r, s)
    kind = SCALE_KINDS[restricted]
    z = scaled_point(np.random.default_rng(seed), kind, fraction, r, s)
    inside = fraction <= 1.0
    assert in_hull(z, p, kind) == inside
    assert separation_witness(z, p, kind).separates == (not inside)
    if inside:
        rep = verify_decomposition(decompose(z, p, kind), z, p, kind)
        assert rep.passed, rep.residuals
    else:
        with pytest.raises(NotInHullError):
            decompose(z, p, kind)


def test_restricted_pairs_stay_on_the_cone_at_every_scale():
    kind = ConeKind.STATIONARY_INCOMPRESSIBLE
    unit_pairs = list(sample_lambda_pair(
        SampleConfig(seed=71, count=20, params=HullParams(1.0, 1.0), kind=kind)))
    for r in RADII:
        for s in RADII:
            p = HullParams(r, s)
            cfg = SampleConfig(seed=71, count=20, params=p, kind=kind)
            pairs = list(sample_lambda_pair(cfg))
            assert len(pairs) == 20
            for (z1, z2), (w1, w2) in zip(pairs, unit_pairs):
                assert in_constraint_set(z1, p) and in_constraint_set(z2, p)
                dz = z1 - z2
                db, dv, de = dz.B / r, dz.u / s, dz.E / (r * s)
                assert abs(db.dot(de)) <= 1e-9, (r, s)
                assert abs(dv.dot(de)) <= 1e-9, (r, s)
                # The same draws give the same normalised pair at every scale.
                assert list(z1.B / r) == pytest.approx(list(w1.B), abs=1e-15)
                assert list(z2.u / s) == pytest.approx(list(w2.u), abs=1e-15)


@pytest.mark.parametrize("radius", [1.0, 1e-3, 1e-5])
def test_verification_rejects_off_cone_pairs_at_small_radii(radius):
    # Two independent constraint-set states differ off the cone; the
    # midpoint satisfies every other check, so only the normalised cone
    # residual can reject the decomposition.
    p = HullParams(radius, radius)
    states = list(sample_K(SampleConfig(seed=72, count=40, params=p)))
    passed = 0
    for z1, z2 in zip(states[::2], states[1::2]):
        d = Decomposition(0.5, z1, z2)
        rep = verify_decomposition(d, d.combine(), p)
        passed += rep.passed
        assert rep.passed or "cone_BE" in rep.failures
    assert passed == 0


@pytest.mark.parametrize("kind", SCALE_KINDS)
@pytest.mark.parametrize("r,s", [(1.0, 1.0), (1e-3, 1e3), (1e-6, 1e-6)])
def test_every_decomposition_direction_has_a_wave_vector(kind, r, s):
    # sample_hull forces the excess boundary (delta = 1) every 100th point;
    # there the two endpoints' E agree up to rounding, so the laminate
    # direction's E is ~1e-16 noise that the wave cone must tolerate.  The
    # special points in the set add the exact-Ohm splits, where dB is
    # parallel to du and dB x du is rounding noise.
    p = HullParams(r, s)
    special = [z for name, z in special_points(p).items() if name != "outside"]
    for z in [*sample_hull(SampleConfig(seed=73, count=1000, params=p, kind=kind)), *special]:
        d = decompose(z, p, kind)
        dz = d.z1 - d.z2
        xi = wave_vector_for(dz, kind)
        res = plane_wave_conditions(dz, xi, kind)
        nx = xi.xi_x.norm()
        e_scale = dz.E.norm() + dz.B.cross(dz.u).norm()
        assert res["gauss"] <= 1e-9 * dz.B.norm() * nx
        assert res["faraday"] <= 1e-9 * (abs(xi.xi_t) * dz.B.norm() + nx * e_scale)
        if kind.incompressible:
            assert res["u_div"] <= 1e-9 * dz.u.norm() * nx


# (log10 r, log10 s) at the vertices and edge midpoints of the radii HullParams
# accepts: |log10(r s)| <= 75 and |log10(r / s)| <= 75.
RANGE_CORNERS = ((75.0, 0.0), (-75.0, 0.0), (0.0, 75.0), (0.0, -75.0),
                 (37.5, 37.5), (-37.5, -37.5), (37.5, -37.5), (-37.5, 37.5))


def corner_params(log_r, log_s, factor):
    return HullParams(10.0 ** (log_r * factor), 10.0 ** (log_s * factor))


@pytest.mark.parametrize("log_r, log_s", RANGE_CORNERS)
def test_radius_range_edges(log_r, log_s):
    # Just inside an edge the radii are accepted, just outside they raise.
    corner_params(log_r, log_s, 1.0 - 1e-6)
    with pytest.raises(ValueError, match="out of range"):
        corner_params(log_r, log_s, 1.0 + 1e-6)


@pytest.mark.parametrize("r, s", [(1e155, 1.0), (1e154, 1.0), (1e-100, 1e-100),
                                  (1e-80, 1e-80), (1e100, 1e-100), (1e-300, 1e300)])
def test_radii_the_kernels_cannot_represent_raise(r, s):
    # Beyond the range r^2 overflows (the exact-Ohm point at r = 1e155 would
    # get g2 = nan) or the decomposition underflows and loses its splits.
    with pytest.raises(ValueError, match="out of range"):
        HullParams(r, s)


@pytest.mark.parametrize("kind", SCALE_KINDS)
@pytest.mark.parametrize("log_r, log_s", RANGE_CORNERS)
def test_campaign_and_decompositions_at_the_range_corners(kind, log_r, log_s):
    p = corner_params(log_r, log_s, 1.0 - 1e-6)
    report = two_sided_hull_check(SampleConfig(seed=3, count=2000, params=p, kind=kind))
    assert report.failure_count == 0
    for z in sample_hull(SampleConfig(seed=4, count=100, params=p, kind=kind)):
        assert verify_decomposition(decompose(z, p, kind), z, p, kind).passed
    B, u = Vec3(0.5 * p.r, 0.0, 0.0), Vec3(0.0, 0.5 * p.s, 0.0)
    assert in_hull(Triple(B, u, B.cross(u)), p, kind)
