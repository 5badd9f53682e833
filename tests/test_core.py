import copy
import json
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest

from dynamohull import (
    ConeKind,
    Decomposition,
    GridResidualReport,
    GridSpec,
    HullParams,
    SampleConfig,
    SeparationWitness,
    StaircaseReport,
    Tolerances,
    Triple,
    Vec3,
    WaveVector,
    eval_g1,
    eval_g2,
    eval_g3,
    in_constraint_set,
    in_hull,
    in_wave_cone,
    sample_K,
    sample_hull,
    separation_witness,
    unit_perpendicular_to_all,
    verify_decomposition,
)
from dynamohull.core import _frame, _perpendicular
from dynamohull.oracle import _COLUMNS
from _helpers import (
    ALL_KINDS,
    cone_direction,
    g2_grid_max,
    g2_refined_max,
    normalized,
    perpendicular_to,
    reference_in_wave_cone,
    reference_triple_arithmetic,
    reference_wave_cone_residuals,
    rotation_matrix,
    rotate_triple,
    unit,
    vec,
)

P11 = HullParams(1.0, 1.0)
NAN = float("nan")
INF = float("inf")


# ---------------------------------------------------------------- types

@pytest.mark.parametrize("bad", [(NAN, 0, 0), (0, NAN, 0), (0, 0, NAN),
                                 (INF, 0, 0), (0, -INF, 0), (0, 0, INF)])
def test_vec3_rejects_non_finite(bad):
    with pytest.raises(ValueError):
        Vec3(*bad)


# A number float() cannot hold (it raises OverflowError) is a ValueError, as a
# non-finite one is, in every record that converts its fields to floats.
TOO_LARGE = 10**400


@pytest.mark.parametrize("make, name", [
    (lambda: Vec3(0, TOO_LARGE, 0), "Vec3 component y"),
    (lambda: HullParams(TOO_LARGE, 1), "magnetic radius r"),
    (lambda: Tolerances(TOO_LARGE), "eps_mem"),
    (lambda: WaveVector(Vec3(1, 0, 0), TOO_LARGE), "temporal frequency xi_t"),
    (lambda: Decomposition.from_json_dict({"lambda": TOO_LARGE}), "decomposition weight lambda"),
], ids=["Vec3", "HullParams", "Tolerances", "WaveVector", "Decomposition"])
def test_records_reject_numbers_too_large_for_a_float(make, name):
    with pytest.raises(ValueError, match=f"^{name} is too large for a float$"):
        make()


def test_vec3_is_immutable():
    v = Vec3(1, 2, 3)
    with pytest.raises(AttributeError):
        v.x = 5.0


def test_triple_requires_vec3_fields():
    with pytest.raises(TypeError):
        Triple((1, 0, 0), Vec3(0, 1, 0), Vec3(0, 0, 1))


def test_triple_is_immutable():
    z = Triple(Vec3(1, 0, 0), Vec3(0, 1, 0), Vec3(0, 0, 1))
    with pytest.raises(AttributeError):
        z.B = Vec3(0, 0, 0)


def test_numpy_scalars_scale_vec3_and_triple_as_floats_do():
    # Without __array_ufunc__ = None numpy would read the tuples as arrays.
    v = Vec3(1, -2, 3)
    z = Triple(v, Vec3(0, 1, 0), Vec3(0.5, 0, -1))
    for obj, kind in ((v, Vec3), (z, Triple)):
        scaled = np.float64(2.0) * obj
        assert type(scaled) is kind
        assert scaled == obj * 2.0


def test_every_record_survives_pickle_and_deepcopy():
    v = Vec3(0.1, -0.0, 3e-300)
    z = Triple(v, Vec3(0, 1, 0), Vec3(0.5, 0, -1))
    d = Decomposition(0.25, z, Triple(-v, Vec3(1, 0, 0), Vec3(0, 0, 1)))
    p = HullParams(0.5, 2.0)
    xi = WaveVector(Vec3(1, 2, 0), -3.0)
    for obj in (v, z, d, p, Tolerances(1e-12), SeparationWitness("g2", 0.125),
                verify_decomposition(d, d.combine(), p), xi, GridSpec(8, 2),
                GridResidualReport(8, 0.5, {"div_B": 1e-3}, xi, "stationary"),
                StaircaseReport(z, 1e-3, 0.25, 0.25, 8, 512),
                SampleConfig(3, 100, p, ConeKind.STATIONARY_INCOMPRESSIBLE)):
        for back in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj)):
            # repr names the type of every nested field and prints each float exactly.
            assert type(back) is type(obj) and repr(back) == repr(obj)
            assert back == obj


@pytest.mark.parametrize("record, field, value", [
    (HullParams(1.0, 1.0), "r", 0.0),
    (Tolerances(), "eps_mem", -1.0),
    (SampleConfig(0, 10, HullParams(1.0, 1.0)), "count", -1),
    (WaveVector(Vec3(1, 0, 0), 0.0), "xi_t", NAN),
    (GridSpec(4), "n", 5),
], ids=lambda x: type(x).__name__ if isinstance(x, tuple) else None)
def test_replace_validates_the_parameter_records(record, field, value):
    # _replace goes through the constructor, so it raises the constructor's error.
    with pytest.raises(ValueError) as replaced:
        record._replace(**{field: value})
    with pytest.raises(ValueError) as built:
        type(record)(**{**record._asdict(), field: value})
    assert str(replaced.value) == str(built.value)


def test_sample_config_count_is_the_field():
    # The field shadows tuple.count.
    assert SampleConfig(seed=0, count=7, params=HullParams(1.0, 1.0)).count == 7


def test_records_compare_as_the_tuples_of_their_fields():
    assert HullParams(4, 1) == GridSpec(4, 1) == (4, 1)
    assert hash(Tolerances(1e-12)) == hash((1e-12,))


def test_vec3_equals_and_hashes_as_the_tuple_of_its_components():
    v = Vec3(1, 2, 3)
    assert v == (1.0, 2.0, 3.0)
    assert hash(v) == hash((1.0, 2.0, 3.0))


def test_vec3_algebra_matches_numpy():
    rng = np.random.default_rng(11)
    for _ in range(300):
        a = vec(rng, 3.0)
        b = vec(rng, 3.0)
        na = np.array(list(a))
        nb = np.array(list(b))
        assert a.dot(b) == pytest.approx(float(na @ nb), rel=1e-14, abs=1e-14)
        assert list(a.cross(b)) == pytest.approx(list(np.cross(na, nb)), abs=1e-14)
        assert a.norm() == pytest.approx(float(np.linalg.norm(na)), rel=1e-14)
        assert list(a + b) == pytest.approx(list(na + nb))
        assert list(a - b) == pytest.approx(list(na - nb))
        assert list(a * 2.5) == pytest.approx(list(na * 2.5))


def test_triple_json_round_trip_is_exact():
    rng = np.random.default_rng(12)
    for _ in range(50):
        z = Triple(vec(rng), vec(rng), vec(rng))
        assert Triple.from_json(z.to_json()) == z


def test_triple_json_schema():
    z = Triple(Vec3(1, 0, 0), Vec3(0, 1, 0), Vec3(0, 0, 1))
    d = json.loads(z.to_json())
    assert d == {"B": [1.0, 0.0, 0.0], "u": [0.0, 1.0, 0.0], "E": [0.0, 0.0, 1.0]}


def test_triple_from_malformed_json():
    with pytest.raises(ValueError):
        Triple.from_json('{"B": [1, 0, 0], "u": [0, 1, 0]}')
    with pytest.raises(ValueError):
        Triple.from_json('{"B": [1, 0], "u": [0, 1, 0], "E": [0, 0, 1]}')


@pytest.mark.parametrize("r,s", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (NAN, 1.0), (1.0, INF)])
def test_hull_params_validation(r, s):
    with pytest.raises(ValueError):
        HullParams(r, s)


def test_hull_params_json_round_trip():
    p = HullParams(0.5, 2.0)
    assert HullParams.from_json_dict(p.to_json_dict()) == p


def test_tolerances_validation():
    with pytest.raises(ValueError):
        Tolerances(eps_mem=0.0)
    with pytest.raises(ValueError):
        Tolerances(eps_mem=-1e-9)
    # The decomposition takes no tolerance and the plane-wave slack is a
    # constant: the membership slack is all there is.
    assert Tolerances._fields == ("eps_mem",)
    with pytest.raises(TypeError):
        Tolerances(eps_root=1e-12)
    assert Tolerances(eps_mem=1e-14).eps_mem == 1e-14


def test_cone_kind_labels_round_trip():
    for kind in ConeKind:
        assert ConeKind.from_label(kind.label) is kind
    with pytest.raises(ValueError):
        ConeKind.from_label("compressible")


def test_cone_kind_flags():
    # (restricts_u, incompressible, stationary) of every kind.
    assert {kind: (kind.restricts_u, kind.incompressible, kind.stationary)
            for kind in ConeKind} == {
        ConeKind.NONSTATIONARY: (False, False, False),
        ConeKind.NONSTATIONARY_INCOMPRESSIBLE: (False, True, False),
        ConeKind.STATIONARY: (False, False, True),
        ConeKind.STATIONARY_INCOMPRESSIBLE: (True, True, True),
    }
    assert all(kind.label == kind.value for kind in ConeKind)


# ------------------------------------------------------ constraint set

def test_constraint_set_canonical_cross_product():
    z = Triple(Vec3(1, 0, 0), Vec3(0, 1, 0), Vec3(0, 0, 1))
    assert in_constraint_set(z, P11)


def test_constraint_set_rejects_broken_ohm_law():
    z = Triple(Vec3(1, 0, 0), Vec3(0, 1, 0), Vec3(0, 0, 0))
    assert not in_constraint_set(z, P11)


def test_constraint_set_tilted_unit_fields():
    B = Vec3(0.6, 0.8, 0)
    u = Vec3(0, 0, 1)
    z = Triple(B, u, B.cross(u))
    assert list(z.E) == pytest.approx([0.8, -0.6, 0.0])
    assert in_constraint_set(z, P11)


def test_constraint_set_rejects_wrong_amplitude():
    B = Vec3(0.5, 0, 0)
    u = Vec3(0, 1, 0)
    assert not in_constraint_set(Triple(B, u, B.cross(u)), P11)


# -------------------------------------------------- separating functions

def test_g1_values():
    assert eval_g1(Triple(Vec3(1, 0, 0), Vec3(0, 1, 0), Vec3(0, 0, 1))) == 0.0
    assert eval_g1(Triple(Vec3(1, 0, 0), Vec3(0, 0, 0), Vec3(0.1, 0, 1))) == pytest.approx(0.1)
    assert eval_g1(Triple(Vec3(0, 0, 0), Vec3(0, 0, 0), Vec3(7, 7, 7))) == 0.0


def test_g2_vanishes_on_constraint_set():
    z = Triple(Vec3(1, 0, 0), Vec3(0, 1, 0), Vec3(0, 0, 1))
    assert eval_g2(z, P11) == pytest.approx(0.0, abs=1e-15)


def test_g2_at_origin():
    z = Triple(Vec3(0, 0, 0), Vec3(0, 0, 0), Vec3(0, 0, 0))
    assert eval_g2(z, P11) == pytest.approx(-1.0)


def test_g2_pure_excess_touches_zero():
    # max over the inner parameter lands at 1/2: -1 + 2*(1/2)*1 = 0.
    z = Triple(Vec3(0, 0, 0), Vec3(0, 0, 0), Vec3(0, 0, 1))
    assert eval_g2(z, P11) == pytest.approx(0.0, abs=1e-12)
    assert g2_grid_max(z, P11) == pytest.approx(0.0, abs=1e-8)


def test_g3_values():
    assert eval_g3(Triple(Vec3(0, 0, 0), Vec3(0, 1, 0), Vec3(0, 0, 1))) == 0.0
    assert eval_g3(Triple(Vec3(0, 0, 0), Vec3(0, 1, 0), Vec3(0, 2, 0))) == pytest.approx(2.0)


def test_g1_g3_vanish_on_constraint_set_samples():
    cfg = SampleConfig(seed=3, count=200, params=HullParams(1.5, 0.7))
    for z in sample_K(cfg):
        assert abs(eval_g1(z)) < 1e-14
        assert abs(eval_g3(z)) < 1e-14


def test_g2_closed_form_vs_grid_small_batch():
    rng = np.random.default_rng(4)
    for _ in range(300):
        z = Triple(vec(rng), vec(rng), vec(rng))
        assert eval_g2(z, P11) >= g2_grid_max(z, P11) - 1e-12
        assert eval_g2(z, P11) == pytest.approx(g2_grid_max(z, P11), abs=5e-7)


def test_g2_closed_form_vs_refined_maximizer():
    # The golden-section oracle has no grid-resolution floor, so arbitrary
    # triples (including near-degenerate inner maximizers) can be checked
    # at a tight tolerance.
    rng = np.random.default_rng(5)
    for _ in range(500):
        z = Triple(vec(rng, 1.5), vec(rng, 1.5), vec(rng, 1.5))
        p = HullParams(rng.uniform(0.3, 2.0), rng.uniform(0.3, 2.0))
        assert eval_g2(z, p) == pytest.approx(g2_refined_max(z, p), abs=1e-10)


# ------------------------------------------------------------ wave cone

def test_wave_cone_orthogonal_fields():
    z = Triple(Vec3(1, 0, 0), Vec3(0.3, 0.2, 0.9), Vec3(0, 1, 0))
    assert in_wave_cone(z, ConeKind.NONSTATIONARY)


def test_wave_cone_rejects_parallel_fields():
    z = Triple(Vec3(1, 0, 0), Vec3(0, 0, 0), Vec3(1, 0, 0))
    assert not in_wave_cone(z, ConeKind.NONSTATIONARY)


def test_wave_cone_is_scale_free():
    # B parallel to E is maximally off the cone, however small the fields.
    z = Triple(Vec3(1e-3, 0, 0), Vec3(0, 1e-3, 0), Vec3(1e-6, 0, 0))
    for kind in ALL_KINDS:
        assert not in_wave_cone(z, kind)
    rng = np.random.default_rng(63)
    for _ in range(100):
        z = cone_direction(rng, ConeKind.STATIONARY_INCOMPRESSIBLE)
        for a in (1e-6, 1.0, 1e6):
            scaled = Triple(z.B * a, z.u * a, z.E * (a * a))
            assert in_wave_cone(scaled, ConeKind.STATIONARY_INCOMPRESSIBLE)
            assert not in_wave_cone(Triple(scaled.B, scaled.u, scaled.B + scaled.E),
                                    ConeKind.NONSTATIONARY)


def test_wave_cone_shared_between_three_kinds():
    rng = np.random.default_rng(6)
    for _ in range(100):
        z = Triple(vec(rng), vec(rng), vec(rng))
        verdicts = {kind: in_wave_cone(z, kind)
                    for kind in (ConeKind.NONSTATIONARY,
                                 ConeKind.NONSTATIONARY_INCOMPRESSIBLE,
                                 ConeKind.STATIONARY)}
        assert len(set(verdicts.values())) == 1


def test_wave_cone_stationary_incompressible():
    z = Triple(Vec3(1, 0, 0), Vec3(0, 1, 0), Vec3(0, 0, 1))
    assert in_wave_cone(z, ConeKind.STATIONARY_INCOMPRESSIBLE)
    # u . E != 0 is allowed in the shared cone but not the restricted one.
    z2 = Triple(Vec3(1, 0, 0), Vec3(0, 0, 1), Vec3(0, 0, 0.5))
    assert in_wave_cone(z2, ConeKind.NONSTATIONARY)
    assert not in_wave_cone(z2, ConeKind.STATIONARY_INCOMPRESSIBLE)


def _wave_cone_points(rng):
    """Random and cone directions at scales 1e-100..1e100, with zero fields."""
    zero = Vec3(0, 0, 0)
    for scale in (1e-100, 1e-3, 1.0, 1e3, 1e100):
        for _ in range(40):
            yield Triple(vec(rng, scale), vec(rng, scale), vec(rng, scale * scale))
            for kind in (ConeKind.NONSTATIONARY, ConeKind.STATIONARY_INCOMPRESSIBLE):
                z = cone_direction(rng, kind)
                yield Triple(z.B * scale, z.u, z.E * scale)
    b = Vec3(0.3, -0.4, 0.5)
    yield from (Triple(zero, b, b), Triple(b, zero, b), Triple(b, b, zero), Triple(b, b, b))


def test_in_wave_cone_matches_reference_at_its_own_thresholds():
    # With eps_mem set to a residual of the reference, and to the doubles on
    # either side of it, the verdict turns on the last bit of the residual:
    # in_wave_cone must form it in the same operations, in the same order.
    rng = np.random.default_rng(260)
    for z in _wave_cone_points(rng):
        for res in reference_wave_cone_residuals(z):
            if not 0.0 < res < INF:
                continue
            for eps in (math.nextafter(res, 0.0), res, math.nextafter(res, INF)):
                for kind in ALL_KINDS:
                    assert in_wave_cone(z, kind, Tolerances(eps)) == (
                        reference_in_wave_cone(z, kind, eps)), (z, kind, eps)
        for kind in ALL_KINDS:
            assert in_wave_cone(z, kind) == reference_in_wave_cone(z, kind), (z, kind)


def test_triple_arithmetic_matches_reference_bit_for_bit():
    rng = np.random.default_rng(261)
    triples = [Triple(vec(rng, scale), vec(rng, 1.0 / scale), vec(rng, scale))
               for scale in (1e-150, 1e-3, 1.0, 1e3, 1e150) for _ in range(20)]
    triples.append(Triple(Vec3(-0.0, 0.0, -0.0), Vec3(0.0, -0.0, 5e-324), Vec3(-1.0, 1e308, 0.0)))
    for a, b in zip(triples, triples[1:] + triples[:1]):
        for t in (0.0, -0.0, -2.5, 3, np.float64(0.1), 1e300):
            results = (a + b, a - b, a * t)
            for got, want in zip(results, reference_triple_arithmetic(a, b, t)):
                assert type(got) is Triple and all(type(v) is Vec3 for v in got)
                assert [x.hex() for v in got for x in v] == [float(x).hex() for x in want]
            assert t * a == a * t


# ----------------------------------------------------------------- hull

def test_hull_contains_constraint_set_point():
    z = Triple(Vec3(1, 0, 0), Vec3(0, 1, 0), Vec3(0, 0, 1))
    for kind in ALL_KINDS:
        assert in_hull(z, P11, kind)


def test_hull_rejects_oversized_excess():
    z = Triple(Vec3(0, 0, 0), Vec3(0, 0, 0), Vec3(0, 0, 1.5))
    assert not in_hull(z, P11)


def test_hull_boundary_equality_case():
    # |E - B x u| = 0.64 = sqrt((1 - 0.36)(1 - 0.36)) exactly on the bound.
    z = Triple(Vec3(0.6, 0, 0), Vec3(0, 0.6, 0), Vec3(0, 0, 1.0))
    assert (z.E - z.B.cross(z.u)).norm() == pytest.approx(0.64)
    assert in_hull(z, P11)


def test_hull_requires_amplitudes_inside_balls():
    B = Vec3(1.2, 0, 0)
    assert not in_hull(Triple(B, Vec3(0, 0, 0), Vec3(0, 0, 0)), P11)
    u = Vec3(0, 1.2, 0)
    assert not in_hull(Triple(Vec3(0, 0, 0), u, Vec3(0, 0, 0)), P11)


def test_hull_requires_orthogonality():
    z = Triple(Vec3(0.5, 0, 0), Vec3(0, 0.5, 0), Vec3(0.1, 0, 0.25))
    assert abs(eval_g1(z)) > 1e-3
    assert not in_hull(z, P11)


def test_boundary_collapse():
    # Full magnetic amplitude forces E = B x u: any excess must be rejected.
    rng = np.random.default_rng(7)
    for _ in range(50):
        B = unit(rng)
        u = vec(rng, 0.6)
        e = unit(rng)
        e = normalized(e - B * e.dot(B))
        z = Triple(B, u, B.cross(u) + e * 1e-3)
        assert not in_hull(z, P11)


def test_hull_agrees_with_separating_functions():
    # Explicit inequalities and the {g1 = 0, g2 <= 0, g3 = 0} form must give
    # the same verdict on sampled points of all flavors.
    rng = np.random.default_rng(8)
    p = HullParams(1.3, 0.8)
    pools = []
    for kind in (ConeKind.NONSTATIONARY, ConeKind.STATIONARY_INCOMPRESSIBLE):
        cfg = SampleConfig(seed=9, count=300, params=p, kind=kind)
        pools.extend((kind, z) for z in sample_hull(cfg))
        pools.extend((kind, z) for z in sample_K(SampleConfig(seed=10, count=200, params=p)))
        pools.extend((kind, Triple(vec(rng, 1.5), vec(rng), vec(rng, 1.5)))
                     for _ in range(300))
    for kind, z in pools:
        w = separation_witness(z, p, kind)
        assert in_hull(z, p, kind) == (not w.separates), (kind, z)


def test_hull_monotone_in_radii():
    cfg = SampleConfig(seed=13, count=300, params=P11)
    for z in sample_hull(cfg):
        assert in_hull(z, P11)
        assert in_hull(z, HullParams(1.5, 1.0))
        assert in_hull(z, HullParams(1.0, 2.0))
        assert in_hull(z, HullParams(3.0, 3.0))


def test_hull_scaling_symmetry():
    rng = np.random.default_rng(14)
    cfg = SampleConfig(seed=15, count=200, params=P11)
    inside = list(sample_hull(cfg))
    outside = [Triple(vec(rng, 1.5), vec(rng), vec(rng, 1.5)) for _ in range(200)]
    for z in inside + outside:
        a = 10.0 ** rng.uniform(-6.0, 6.0)
        b = 10.0 ** rng.uniform(-6.0, 6.0)
        scaled = Triple(z.B * a, z.u * b, z.E * (a * b))
        sp = HullParams(a * P11.r, b * P11.s)
        assert in_hull(scaled, sp) == in_hull(z, P11)


def test_hull_rotation_equivariance():
    rng = np.random.default_rng(16)
    cfg = SampleConfig(seed=17, count=200, params=P11)
    inside = list(sample_hull(cfg))
    outside = [Triple(vec(rng, 1.5), vec(rng), vec(rng, 1.5)) for _ in range(200)]
    for z in inside + outside:
        R = rotation_matrix(rng)
        assert in_hull(rotate_triple(R, z), P11) == in_hull(z, P11)


# ------------------------------------------------------------ witnesses

def test_witness_g2_for_amplitude_violation():
    z = Triple(Vec3(1.1, 0, 0), Vec3(0, 0, 0), Vec3(0, 0, 0))
    w = separation_witness(z, P11)
    assert w.function == "g2"
    assert w.value == pytest.approx(0.21, abs=1e-12)


def test_witness_g1_for_orthogonality_violation():
    z = Triple(Vec3(1, 0, 0), Vec3(0, 1, 0), Vec3(0.1, 0, 1))
    w = separation_witness(z, P11)
    assert w.function == "g1"
    assert w.value == pytest.approx(0.1)


def test_witness_g3_for_stationary_violation():
    # g1 = 0 but g3 = 0.5; the restricted cone reports g3 before g2.
    z = Triple(Vec3(1, 0, 0), Vec3(0, 0, 1), Vec3(0, 0, 0.5))
    w = separation_witness(z, P11, ConeKind.STATIONARY_INCOMPRESSIBLE)
    assert w.function == "g3"
    assert w.value == pytest.approx(0.5)


def test_witness_g3_priority_only_in_restricted_cone():
    # An interior point with u . E != 0: inside the shared-cone hull, outside
    # the restricted one, and only g3 can certify that.
    z = Triple(Vec3(0.5, 0, 0), Vec3(0, 0, 0.5), Vec3(0, 0, 0.3))
    assert not separation_witness(z, P11, ConeKind.NONSTATIONARY).separates
    w = separation_witness(z, P11, ConeKind.STATIONARY_INCOMPRESSIBLE)
    assert w.function == "g3"
    assert w.value == pytest.approx(0.15)


def test_witness_none_inside():
    z = Triple(Vec3(0.3, 0, 0), Vec3(0, 0.4, 0), Vec3(0, 0, 0.5))
    w = separation_witness(z, P11)
    assert w.function is None
    assert not w.separates
    # Every member gets the one shared witness.
    origin = Triple(Vec3(0, 0, 0), Vec3(0, 0, 0), Vec3(0, 0, 0))
    assert separation_witness(origin, P11) is w == SeparationWitness(None, 0.0)


# ------------------------------------------- cone-affinity and convexity

def test_g1_affine_along_cone_directions():
    rng = np.random.default_rng(18)
    for _ in range(500):
        z0 = Triple(vec(rng, 2.0), vec(rng, 2.0), vec(rng, 2.0))
        z = cone_direction(rng)
        t = rng.uniform(-1, 1)
        plus = eval_g1(z0 + z * t)
        minus = eval_g1(z0 - z * t)
        mid = eval_g1(z0)
        scale = 1.0 + abs(plus) + abs(minus) + 2.0 * abs(mid)
        assert abs(plus + minus - 2.0 * mid) <= 1e-10 * scale


def test_g3_affine_along_stationary_cone_directions():
    rng = np.random.default_rng(19)
    for _ in range(500):
        z0 = Triple(vec(rng, 2.0), vec(rng, 2.0), vec(rng, 2.0))
        z = cone_direction(rng, ConeKind.STATIONARY_INCOMPRESSIBLE)
        t = rng.uniform(-1, 1)
        plus = eval_g3(z0 + z * t)
        minus = eval_g3(z0 - z * t)
        mid = eval_g3(z0)
        scale = 1.0 + abs(plus) + abs(minus) + 2.0 * abs(mid)
        assert abs(plus + minus - 2.0 * mid) <= 1e-10 * scale


def test_g2_midpoint_convexity():
    rng = np.random.default_rng(20)
    p = HullParams(1.2, 0.9)
    for _ in range(500):
        z0 = Triple(vec(rng, 2.0), vec(rng, 2.0), vec(rng, 2.0))
        z = Triple(vec(rng), vec(rng), vec(rng))
        t = rng.uniform(-1, 1)
        lhs = eval_g2(z0, p)
        rhs = 0.5 * (eval_g2(z0 + z * t, p) + eval_g2(z0 - z * t, p))
        assert rhs - lhs >= -1e-8


def test_hull_identical_across_shared_cone_kinds():
    # Only the stationary incompressible variant changes the relaxed set;
    # the other three kinds share both the cone and the hull.
    rng = np.random.default_rng(60)
    p = HullParams(1.1, 0.9)
    pool = [Triple(vec(rng, 1.4), vec(rng, 1.1), vec(rng, 1.4)) for _ in range(300)]
    pool += list(sample_hull(SampleConfig(seed=61, count=200, params=p)))
    for z in pool:
        verdicts = {in_hull(z, p, kind) for kind in (ConeKind.NONSTATIONARY,
                                                     ConeKind.NONSTATIONARY_INCOMPRESSIBLE,
                                                     ConeKind.STATIONARY)}
        assert len(verdicts) == 1


# ---------------------------------------------------------------- perpendiculars

def _off_perpendicular(e, a) -> float:
    """|e . a| / |a| in exact rationals, 0 for a = 0: how far e is from perpendicular to a."""
    dot = sum(Fraction(x) * Fraction(y) for x, y in zip(e, a))
    norm2 = sum(Fraction(y) ** 2 for y in a)
    return 0.0 if norm2 == 0 else abs(float(dot)) / math.sqrt(float(norm2))


def _perpendicular_cases():
    """(a, b) pairs at angles from 1e-3 down to 1e-15 at magnitudes 1e-6..1e6,
    exactly parallel and antiparallel pairs, and pairs with a zero vector."""
    rng = np.random.default_rng(40)
    cases = []
    for angle in 10.0 ** -np.arange(3, 16):
        for _ in range(40):
            a = np.array(list(unit(rng)))
            t = np.cross(a, np.array(list(unit(rng))))
            t /= np.linalg.norm(t)
            b = a * math.cos(angle) + t * math.sin(angle)
            cases.append((a * 10.0 ** rng.uniform(-6, 6), b * 10.0 ** rng.uniform(-6, 6)))
    for _ in range(40):
        a = np.array(list(vec(rng)))
        cases += [(a, 2.0 * a), (a, -0.5 * a), (a, np.zeros(3)), (np.zeros(3), a)]
    cases += [(np.zeros(3), np.zeros(3)), (np.array([0.0, 0.0, 3.0]), np.array([0.0, 0.0, -1.0]))]
    return [(Vec3(*a), Vec3(*b)) for a, b in cases]


def test_perpendicular_is_perpendicular_at_every_angle():
    # The closed form (c1 p2 - c2 p1) / rho has no threshold: it stays within
    # 1e-15 of perpendicular to both vectors, and of unit length, at every angle.
    for a, b in _perpendicular_cases():
        e = unit_perpendicular_to_all((a, b))
        assert _off_perpendicular(e, a) <= 1e-15 and _off_perpendicular(e, b) <= 1e-15, (a, b)
        assert abs(e.norm() - 1.0) <= 1e-15
        p = perpendicular_to(a)
        assert _off_perpendicular(p, a) <= 1e-15 and abs(p.norm() - 1.0) <= 1e-15


def test_perpendicular_float_views_match_the_column_kernels():
    # unit_perpendicular_to_all is _perpendicular on floats, and with a zero
    # second vector p1 of _frame: bit for bit the column kernels' rows.
    cases = _perpendicular_cases()
    a = tuple(np.array([getattr(x, c) for x, _ in cases]) for c in "xyz")
    b = tuple(np.array([getattr(y, c) for _, y in cases]) for c in "xyz")
    with np.errstate(all="ignore"):
        e = np.column_stack(_perpendicular(a, b, _COLUMNS))
        p1 = np.column_stack(_frame(a, _COLUMNS)[1])
    got = np.array([list(unit_perpendicular_to_all(pair)) for pair in cases])
    assert (got.view(np.uint64) == e.view(np.uint64)).all()
    got = np.array([list(perpendicular_to(x)) for x, _ in cases])
    assert (got.view(np.uint64) == p1.view(np.uint64)).all()


def test_perpendicular_float_views_are_bit_identical_at_every_magnitude():
    # The float views scale each input by a power of two, which moves no bit
    # of the frame while v . v neither overflows nor underflows: at
    # magnitudes 1e-140..1e140 they match the unscaled column kernels.
    rng = np.random.default_rng(41)
    a = rng.normal(size=(3, 20_000)) * 10.0 ** rng.uniform(-140.0, 140.0, 20_000)
    b = rng.normal(size=(3, 20_000)) * 10.0 ** rng.uniform(-140.0, 140.0, 20_000)
    e = np.column_stack(_perpendicular(tuple(a), tuple(b), _COLUMNS))
    p1 = np.column_stack(_frame(tuple(a), _COLUMNS)[1])
    pairs = [(Vec3(*x), Vec3(*y)) for x, y in zip(a.T, b.T)]
    got = np.array([list(unit_perpendicular_to_all(pair)) for pair in pairs])
    assert (got.view(np.uint64) == e.view(np.uint64)).all()
    got = np.array([list(perpendicular_to(x)) for x, _ in pairs])
    assert (got.view(np.uint64) == p1.view(np.uint64)).all()


@pytest.mark.parametrize("v", [Vec3(1e200, 0.0, 0.0), Vec3(3e-170, 2e-170, 1e-170)])
def test_perpendicular_at_the_ends_of_the_double_range(v):
    # v . v overflows for the first vector and underflows for the second.
    top = max(abs(x) for x in v)
    other = Vec3(v.z, v.x, v.y)
    checks = ((perpendicular_to(v), (v,)), (unit_perpendicular_to_all((v, other)), (v, other)))
    for e, vs in checks:
        assert abs(e.norm() - 1.0) <= 1e-15
        for w in vs:
            assert _off_perpendicular(e, w / top) <= 1e-15, (v, e)
