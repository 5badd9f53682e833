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
    decompose,
    in_constraint_set,
    in_hull,
    plane_wave_conditions,
    sample_K,
    sample_hull,
    sample_lambda_pair,
    separation_witness,
    verify_decomposition,
    wave_vector_for,
)
from _helpers import scaled_point

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
    # direction's E is ~1e-16 noise that the wave cone must tolerate.
    p = HullParams(r, s)
    for z in sample_hull(SampleConfig(seed=73, count=1000, params=p, kind=kind)):
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
