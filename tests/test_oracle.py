import io
import json
import math

import numpy as np
import pytest

from dynamohull import (
    ConeKind,
    HullCheckReport,
    HullParams,
    SampleConfig,
    Tolerances,
    Triple,
    Vec3,
    decompose,
    eval_g1,
    eval_g3,
    in_constraint_set,
    in_hull,
    sample_K,
    sample_first_laminate,
    sample_hull,
    sample_lambda_pair,
    two_sided_hull_check,
    verify_decomposition,
    write_samples_csv,
)
from dynamohull import oracle
from _helpers import ALL_KINDS, excess_bound, reference_pair_block
from test_blocks import ListStream

P11 = HullParams(1.0, 1.0)


def test_sample_config_validation():
    with pytest.raises(ValueError):
        SampleConfig(seed=0, count=-1, params=P11)


def test_sample_config_rejects_a_non_integral_count():
    with pytest.raises(ValueError, match="count must be a nonnegative integer"):
        SampleConfig(seed=0, count=2.5, params=P11)
    cfg = SampleConfig(seed=0, count=3.0, params=P11)
    assert cfg.count == 3 and isinstance(cfg.count, int)
    assert len(list(sample_hull(cfg))) == 3


@pytest.mark.parametrize("seed", [-1, 2.5])
def test_sample_config_rejects_a_seed_that_is_not_a_nonnegative_integer(seed):
    with pytest.raises(ValueError, match=f"seed must be a nonnegative integer, got {seed}"):
        SampleConfig(seed=seed, count=3, params=P11)


def test_sample_config_stores_an_integral_seed_as_an_int():
    cfg = SampleConfig(seed=7.0, count=3, params=P11)
    assert cfg.seed == 7 and isinstance(cfg.seed, int)
    assert list(sample_hull(cfg)) == list(sample_hull(SampleConfig(seed=7, count=3, params=P11)))


def test_uniform_stream_is_deterministic_and_buffered():
    # The samplers read each block with one Generator.random call.  A double
    # costs one 64-bit output of PCG64, so random(a) then random(b) is
    # random(a + b) bit for bit, and item i sits at a fixed offset however
    # the blocks fall.
    def stream(seed):
        return oracle._generator(SampleConfig(seed=seed, count=0, params=P11))

    whole = stream(123).random(30_000)
    assert (stream(123).random(30_000).view(np.uint64) == whole.view(np.uint64)).all()
    assert stream(124).random(1)[0] != whole[0]
    for sizes in ((1, 29_999), (7, 8, 1024 * 7, 20_000 - 1024 * 7 - 15), (0, 8192, 8193)):
        gen = stream(123)
        split = np.concatenate([gen.random(n) for n in sizes])
        assert (split.view(np.uint64) == whole[:len(split)].view(np.uint64)).all()


def test_sample_K_members_and_determinism():
    cfg = SampleConfig(seed=5, count=500, params=HullParams(0.7, 1.9))
    first = list(sample_K(cfg))
    second = list(sample_K(cfg))
    assert first == second
    for z in first:
        assert in_constraint_set(z, cfg.params)
        assert in_hull(z, cfg.params)


def test_circle_takes_the_sine_from_the_cosine():
    # One cosine per angle 2 pi w; the sine is the signed square root of
    # (1 - c)(1 + c), so c^2 + s^2 = 1 to rounding and s misses the libm sine
    # only by the cosine's own rounding, at most near c = +-1.
    w = oracle._generator(SampleConfig(seed=34, count=0, params=P11)).random(1_000_000)
    c, s = oracle._circle(w)
    assert (c == np.cos(oracle.TWO_PI * w)).all()
    assert np.abs(c * c + s * s - 1.0).max() <= 2.3e-16
    assert np.abs(s - np.sin(oracle.TWO_PI * w)).max() <= 1e-9


@pytest.mark.parametrize("w0,expected", [(0.0, (1.0, 0.0)), (0.25, (0.0, 1.0)),
                                         (0.5, (-1.0, 0.0)), (0.75, (0.0, -1.0))])
def test_circle_quadrants(w0, expected):
    # At the quarter turns, and at the 4 draws on either side of each (below
    # 0 the draws wrap to just below 1), s has the sign bit of the libm sine:
    # +0 at w = 0 and 1/2, -0 just below 1 and just above 1/2.
    c, s = oracle._circle(np.array([w0]))
    assert np.abs(np.array([c[0], s[0]]) - expected).max() <= 2.3e-16
    w = [w0]
    lo = hi = w0
    for _ in range(4):
        hi = np.nextafter(hi, 2.0)
        lo = np.nextafter(lo, -1.0) if lo > 0.0 else np.nextafter(1.0, 0.0)
        w += [hi, lo]
    w = np.array(w)
    c, s = oracle._circle(w)
    sine = np.sin(oracle.TWO_PI * w)
    assert (np.signbit(s) == np.signbit(sine)).all()
    assert np.abs(s - sine).max() <= 1e-14


def test_sample_K_states_lie_on_their_spheres():
    # Off r = s = 1 the sphere's radius multiplies its unit point once:
    # |B| and |u| are within 4 ulp of r and s.
    p = HullParams(1e-3, 1e3)
    for z in sample_K(SampleConfig(seed=35, count=20_000, params=p)):
        assert abs(z.B.norm() - p.r) <= 4 * math.ulp(p.r)
        assert abs(z.u.norm() - p.s) <= 4 * math.ulp(p.s)


def test_sample_K_mean_is_centred():
    # Sphere symmetry: componentwise mean within the 3-sigma CLT band.
    n = 1_000_000
    r = 1.3
    cfg = SampleConfig(seed=0, count=n, params=HullParams(r, 1.0))
    # sample_K yields these states as Triples; summing the B columns skips building 1M of them.
    blocks = oracle._K_blocks(oracle._generator(cfg), cfg)
    mean = sum(np.array([x.sum() for x in B]) for B, _, _ in blocks) / n
    assert np.all(np.abs(mean) < 3.0 / np.sqrt(n) * r)


@pytest.mark.parametrize("kind", [ConeKind.NONSTATIONARY,
                                  ConeKind.STATIONARY_INCOMPRESSIBLE])
def test_lambda_pairs_are_valid(kind):
    p = HullParams(1.5, 0.5)
    cfg = SampleConfig(seed=6, count=500, params=p, kind=kind)
    pairs = list(sample_lambda_pair(cfg))
    for z1, z2 in pairs:
        assert in_constraint_set(z1, p)
        assert in_constraint_set(z2, p)
        dz = z1 - z2
        assert abs(dz.B.dot(dz.E)) <= 1e-10 * (1.0 + dz.B.norm() * dz.E.norm())
        if kind.restricts_u:
            assert abs(dz.u.dot(dz.E)) <= 1e-10 * (1.0 + dz.u.norm() * dz.E.norm())
    assert len(pairs) == 500


@pytest.mark.parametrize("radii", [(1.0, 1.0), (1e-3, 1e3), (1e-6, 1e6)])
@pytest.mark.parametrize("kind", [ConeKind.NONSTATIONARY,
                                  ConeKind.STATIONARY_INCOMPRESSIBLE])
def test_pair_block_matches_libm_reference(kind, radii):
    # 20k pairs of one stream, then 2k whose B2 draws sit within 1e-12 of
    # their B1 draws: B1 x B2 is then mostly rounding, yet its direction is
    # a valid plane normal through u1.  On those rows the second plane's
    # normal n2 = (B1 - B2) x u1 is as small, yet the mirror across
    # span{nh, n2} is taken along nh x n2's part across nh, so every pair,
    # near-parallel rows included, meets the cone to rounding.
    p = HullParams(*radii)
    n, m = 20_000, 2_000
    w = oracle._generator(SampleConfig(seed=42, count=0, params=p)).random(7 * n).reshape(n, 7)
    near = w[:m].copy()
    near[:, 4:6] = near[:, 0:2] + 1e-12 * np.random.default_rng(0).uniform(-1.0, 1.0, (m, 2))
    w = np.concatenate((w, near))
    z1, z2 = oracle._pair_block(w, p, kind.restricts_u)
    ref, ref_res = reference_pair_block(w, p, kind.restricts_u)
    rows = np.column_stack([x for z in (z1, z2) for v in z for x in v])
    # The residual of the unit pairs: the radii's factors of 1.0 keep their bits.
    res = oracle._pair_residual(*oracle._pair_block(w, P11, kind.restricts_u), kind.restricts_u)

    assert res.max() <= 1e-14
    if kind.restricts_u:
        # The reference turns by 2 atan2(C, A), whose rounding differs from
        # the mirror's, so the two placements agree to a bound, not bitwise.
        unit = np.tile(np.repeat([p.r, p.s, p.r * p.s], 3), 2)
        assert np.abs(rows / unit - ref / unit).max() <= 1e-10
    else:
        assert (rows.view(np.uint64) == ref.view(np.uint64)).all()
        assert (res.view(np.uint64) == ref_res.view(np.uint64)).all()


def _differences(z1, z2):
    """(dB, du, dE) of two (B, u, E) states of component columns."""
    return [tuple(x - y for x, y in zip(v1, v2)) for v1, v2 in zip(z1, z2)]


def _edited_pairs(monkeypatch, edit):
    """Patch the pair kernel's u2 by edit(b1, u1, b2, u2), in place, and record
    every unit pair (z1, z2) it builds."""
    real, built = oracle._circle_point, []

    def circle_point(b1, u1, b2, e1, draw, restricts_u):
        u2 = real(b1, u1, b2, e1, draw, restricts_u)
        edit(b1, u1, b2, u2)
        built.append(((b1, u1, e1), (b2, u2, oracle._cross(b2, u2))))
        return u2

    monkeypatch.setattr(oracle, "_circle_point", circle_point)
    return built


@pytest.mark.parametrize("kind", [ConeKind.NONSTATIONARY, ConeKind.STATIONARY_INCOMPRESSIBLE])
def test_off_cone_pair_raises_on_its_first_row_with_the_residual(kind, monkeypatch):
    # Two rows pushed off the cone, the later one further: the sampler raises
    # on the earlier, with the residual _pair_residual gives it among all rows.
    def edit(b1, u1, b2, u2):
        for x, y in zip(u2, u1):
            x[[700, 1500]] = -y[[700, 1500]] * np.array([1.0, 3.0])

    built = _edited_pairs(monkeypatch, edit)
    cfg = SampleConfig(seed=8, count=2000, params=HullParams(1e-3, 1e3), kind=kind)
    with pytest.raises(RuntimeError) as exc:
        list(sample_lambda_pair(cfg))
    res = oracle._pair_residual(*built[0], kind.restricts_u)
    bad = np.flatnonzero(~(res <= 1e-10))
    assert bad.tolist() == [700, 1500]
    assert str(exc.value) == f"constructed pair violates the cone: residual {float(res[700])}"


@pytest.mark.parametrize("largest", [True, False])
@pytest.mark.parametrize("kind", [ConeKind.NONSTATIONARY, ConeKind.STATIONARY_INCOMPRESSIBLE])
def test_pair_screen_leaves_a_dot_product_above_its_bound_to_the_residual(
        kind, largest, monkeypatch):
    # One row's u2 moves along B1 x B2 by t, which moves dB . dE by
    # -t |B1 x B2|, to about 2e-10: beyond the screen's bound, so that row
    # alone goes to the residual.  On the row with the largest |dB||dE| (and
    # |du||dE|) the residual, 2e-10 / (1 + |dB||dE|) with |dB||dE| > 1, stays
    # below 1e-10 and the pair passes; on the row with the smallest it does
    # not, and the sampler raises with that row's residual.
    rows, calls = [], []

    def edit(b1, u1, b2, u2):
        z1, z2 = (b1, u1, oracle._cross(b1, u1)), (b2, u2, oracle._cross(b2, u2))
        db, du, de = (np.sqrt(oracle._dot(d, d)) for d in _differences(z1, z2))
        size = np.minimum(db, du) * de
        k = int(np.argmax(size) if largest else np.argmin(size))
        n = oracle._cross(b1, b2)
        for x, c in zip(u2, n):
            x[k] -= 2e-10 * c[k] / oracle._dot(n, n)[k]
        rows.append(k)

    real = oracle._pair_residual

    def pair_residual(z1, z2, restricts_u):
        calls.append(len(z1[0][0]))
        return real(z1, z2, restricts_u)

    monkeypatch.setattr(oracle, "_pair_residual", pair_residual)
    built = _edited_pairs(monkeypatch, edit)
    cfg = SampleConfig(seed=9, count=500, params=P11, kind=kind)
    if largest:
        assert len(list(sample_lambda_pair(cfg))) == 500
    else:
        with pytest.raises(RuntimeError) as exc:
            list(sample_lambda_pair(cfg))
    (k,) = rows
    db, _, de = _differences(*built[0])
    assert abs(oracle._dot(db, de)[k]) > 1e-10
    res = real(*built[0], kind.restricts_u)
    assert np.flatnonzero(~(res <= 1e-10)).tolist() == ([] if largest else [k])
    if not largest:
        assert str(exc.value) == f"constructed pair violates the cone: residual {float(res[k])}"
    assert calls == [1]


@pytest.mark.parametrize("kind", [ConeKind.NONSTATIONARY, ConeKind.STATIONARY_INCOMPRESSIBLE])
def test_nan_pair_raises(kind, monkeypatch):
    def edit(b1, u1, b2, u2):
        u2[1][42] = np.nan

    _edited_pairs(monkeypatch, edit)
    cfg = SampleConfig(seed=10, count=100, params=P11, kind=kind)
    with pytest.raises(RuntimeError, match="^constructed pair violates the cone: residual nan$"):
        list(sample_lambda_pair(cfg))


def test_coincident_planes_keep_the_drawn_angle(monkeypatch):
    # u1's draws repeat B1's, so u1 = B1 and E1 = B1 x B1 = 0 exactly.  The
    # second plane u2 . (B1 x B2) = 0 is then the circle's own plane, nh x n2
    # is rounding noise below the free rows' bound, and every pair keeps the
    # drawn turn, as the libm reference places it.
    count = 3000
    p = HullParams(0.5, 2.0)
    cfg = SampleConfig(seed=29, count=count, params=p, kind=ConeKind.STATIONARY_INCOMPRESSIBLE)
    w = oracle._generator(cfg).random(8 * count).reshape(count, 8)
    w[:, 2:4] = w[:, 0:2]
    fake = ListStream(w.ravel())
    monkeypatch.setattr(oracle, "_generator", lambda cfg: fake)
    pairs = list(sample_lambda_pair(cfg))
    assert len(pairs) == count
    assert fake.i == 8 * count
    ref, ref_res = reference_pair_block(w, p, True)
    assert ref_res.max() <= 1e-14
    rows = np.array([[*z1.B, *z1.u, *z1.E, *z2.B, *z2.u, *z2.E] for z1, z2 in pairs])
    assert (rows[:, 6:9] == 0.0).all()
    assert (rows.view(np.uint64) == ref.view(np.uint64)).all()

def test_restricted_pairs_are_not_degenerate():
    # u1 is a root of the second plane on the circle; u2 is the other one, so
    # a pair with u2 = u1 (a B-only laminate with |u| = s and no excess) is
    # rare, not half of the stream.
    cfg = SampleConfig(seed=3, count=20_000, params=P11, kind=ConeKind.STATIONARY_INCOMPRESSIBLE)
    near = total = 0
    for (_, u1, _), (_, u2, _), _ in oracle._pair_blocks(oracle._generator(cfg), cfg):
        du = np.sqrt(sum((a - b) ** 2 for a, b in zip(u1, u2)))
        near += int((du <= 1e-8 * cfg.params.s).sum())
        total += len(du)
    assert total == 20_000
    assert near < 0.01 * total


def test_equal_B_pairs_are_valid_directions():
    # A shared magnetic endpoint makes the cone condition automatic.
    B = Vec3(1, 0, 0)
    u1, u2 = Vec3(0, 1, 0), Vec3(0, 0, 1)
    z1 = Triple(B, u1, B.cross(u1))
    z2 = Triple(B, u2, B.cross(u2))
    dz = z1 - z2
    assert dz.B.dot(dz.E) == 0.0
    mix = z1 * 0.4 + z2 * 0.6
    assert in_hull(mix, P11)


def test_first_laminate_in_hull_and_orthogonal():
    tol = Tolerances(eps_mem=1e-10)
    for kind in (ConeKind.NONSTATIONARY, ConeKind.STATIONARY_INCOMPRESSIBLE):
        cfg = SampleConfig(seed=7, count=2000, params=P11, kind=kind)
        for z in sample_first_laminate(cfg):
            assert in_hull(z, P11, kind, tol)
            assert abs(eval_g1(z)) <= 1e-10
            if kind.restricts_u:
                assert abs(eval_g3(z)) <= 1e-10


def test_degenerate_weights_land_in_constraint_set():
    cfg = SampleConfig(seed=8, count=50, params=P11)
    for z1, z2 in sample_lambda_pair(cfg):
        assert in_constraint_set(z1 * 1.0 + z2 * 0.0, P11)
        assert in_constraint_set(z1 * 0.0 + z2 * 1.0, P11)


def test_hull_sampler_members_and_boundary_coverage():
    for kind in (ConeKind.NONSTATIONARY, ConeKind.STATIONARY_INCOMPRESSIBLE):
        cfg = SampleConfig(seed=9, count=300, params=HullParams(2.0, 0.5), kind=kind)
        pts = list(sample_hull(cfg))
        for z in pts:
            assert in_hull(z, cfg.params, kind), z
        # every 100th sample sits exactly on the excess boundary
        for idx in (99, 199, 299):
            z = pts[idx]
            excess = (z.E - z.B.cross(z.u)).norm()
            bound = excess_bound(z.B, z.u, cfg.params)
            assert excess == pytest.approx(bound, rel=1e-12)


def test_excess_directions_are_uniform_about_B():
    # One angle in a frame of B: unit directions perpendicular to B whose
    # mean over the circle vanishes within the 3-sigma CLT band; B = 0 takes
    # the frame of the fixed axis.
    n = 100_000
    phi = np.random.default_rng(32).random(n)
    for B in ((0.3, -0.4, 1.2), (0.0, 0.0, -2.0), (1e-3, 0.0, 0.0), (0.0, 0.0, 0.0)):
        cols = tuple(np.full(n, x) for x in B)
        e = np.column_stack(oracle._excess_directions(cols, phi))
        assert np.abs(np.einsum("ij,ij->i", e, e) - 1.0).max() <= 1e-15
        assert np.abs(e @ np.array(B)).max() <= 1e-15 * np.linalg.norm(B)
        assert np.abs(e.mean(axis=0)).max() < 3.0 * np.sqrt(0.5 / n)


def test_hull_sampler_stationary_keeps_u_orthogonality():
    cfg = SampleConfig(seed=10, count=500, params=P11,
                       kind=ConeKind.STATIONARY_INCOMPRESSIBLE)
    for z in sample_hull(cfg):
        assert abs(eval_g3(z)) <= 1e-10 * (1.0 + z.u.norm() * z.E.norm())


def test_two_sided_check_clean_report():
    cfg = SampleConfig(seed=11, count=3000, params=P11)
    rep = two_sided_hull_check(cfg)
    assert rep.laminate_checked == 3000
    assert rep.decompose_checked == 300
    assert rep.failure_count == 0
    assert rep.max_verify_residual <= 1e-9


def test_two_sided_check_stationary_reports_extra_checks():
    cfg = SampleConfig(seed=12, count=2000, params=P11,
                       kind=ConeKind.STATIONARY_INCOMPRESSIBLE)
    rep = two_sided_hull_check(cfg)
    assert rep.failure_count == 0
    assert rep.max_u_orthogonality is not None
    assert rep.max_u_orthogonality <= 1e-10
    assert rep.max_mixing_orthogonality is not None
    assert rep.max_mixing_orthogonality <= 1e-9
    d = rep.to_json_dict()
    assert "max_u_orthogonality" in d
    assert "max_mixing_orthogonality" in d


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_report_maxima_are_those_of_the_check_list(kind):
    # The campaign folds verify_decomposition's residuals, one maximum per
    # check, and reads every other verification maximum from them.
    p = HullParams(0.5, 2.0)
    cfg = SampleConfig(seed=19, count=2000, params=p, kind=kind)
    rep = two_sided_hull_check(cfg)
    z = next(sample_hull(cfg))
    ver = verify_decomposition(decompose(z, p, kind), z, p, kind)
    by_check = rep.max_residual_by_check
    assert set(by_check) == set(ver.residuals)
    assert rep.max_verify_residual == max(by_check.values())
    assert rep.max_mixing_orthogonality == by_check.get("mixing_orthogonality")
    assert (rep.max_mixing_orthogonality is None) == (not kind.restricts_u)
    d = rep.to_json_dict()
    assert d["max_verify_residual"] == rep.max_verify_residual
    assert d.get("max_mixing_orthogonality") == rep.max_mixing_orthogonality


def test_report_stores_no_maximum_it_can_derive():
    rep = HullCheckReport(seed=0, kind="stationary-incompressible", r=1.0, s=1.0)
    other = HullCheckReport(seed=0, kind="stationary-incompressible", r=1.0, s=1.0)
    assert (rep.laminate_checked, rep.laminate_failure_count, rep.decompose_checked,
            rep.decompose_failure_count, rep.max_u_orthogonality) == (0, 0, 0, 0, None)
    # Each report owns its own map and list.
    assert rep.max_residual_by_check == {} and rep.failures == []
    assert rep.max_residual_by_check is not other.max_residual_by_check
    assert rep.failures is not other.failures
    assert rep.max_verify_residual == 0.0 and rep.max_mixing_orthogonality is None
    rep.max_residual_by_check.update(cone_BE=3e-16, mixing_orthogonality=5e-16)
    assert rep.max_verify_residual == rep.max_mixing_orthogonality == rep.max_residual == 5e-16
    rep.max_u_orthogonality = 7e-16
    assert rep.max_residual == 7e-16
    with pytest.raises(AttributeError):
        rep.max_verify_residual = 1.0


def test_campaign_hull_half_is_sample_hull_on_its_own_stream(monkeypatch):
    # The campaign's hull points are sample_hull's for count // 10, bit for
    # bit, and they read a stream of their own: the first hull point's draws
    # are none of the first pair's.
    cfg = SampleConfig(seed=33, count=5000, params=HullParams(0.5, 2.0))
    real, check = oracle._generator, oracle._check_decompositions
    streams, blocks = [], []

    def recorded(cfg, key=0):
        stride = 12 if key == oracle.HULL_KEY else 8
        streams.append(ListStream(real(cfg, key).random(stride * cfg.count)))
        return streams[-1]

    def spy(report, z, *args):
        blocks.append(np.column_stack([x for v in z for x in v]))
        check(report, z, *args)

    monkeypatch.setattr(oracle, "_generator", recorded)
    monkeypatch.setattr(oracle, "_check_decompositions", spy)
    assert two_sided_hull_check(cfg).failure_count == 0
    monkeypatch.undo()
    mixtures, hull = streams
    assert not np.isin(hull.draws[:12], mixtures.draws[:8]).any()
    expected = np.array([[*z.B, *z.u, *z.E] for z in sample_hull(
        SampleConfig(seed=33, count=500, params=cfg.params))])
    got = np.concatenate(blocks)
    assert got.shape == expected.shape
    assert (got.view(np.uint64) == expected.view(np.uint64)).all()


def test_two_sided_check_empty_campaign():
    cfg = SampleConfig(seed=13, count=0, params=P11)
    rep = two_sided_hull_check(cfg)
    assert rep.laminate_checked == 0
    assert rep.decompose_checked == 0
    assert rep.failure_count == 0
    assert rep.failures == []


def test_two_sided_check_report_determinism():
    cfg = SampleConfig(seed=14, count=1000, params=HullParams(0.5, 2.0))
    r1 = two_sided_hull_check(cfg).to_json()
    r2 = two_sided_hull_check(cfg).to_json()
    assert r1 == r2


@pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
def test_two_sided_check_radius_grid(r, s):
    cfg = SampleConfig(seed=15, count=400, params=HullParams(r, s))
    rep = two_sided_hull_check(cfg)
    assert rep.failure_count == 0


def test_csv_export_schema():
    cfg = SampleConfig(seed=16, count=25, params=P11)
    buf = io.StringIO()
    n = write_samples_csv(buf, sample_first_laminate(cfg), P11)
    assert n == 25
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "Bx,By,Bz,ux,uy,uz,Ex,Ey,Ez,in_hull,g1,g2,g3"
    assert len(lines) == 26
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == 13
        assert cells[9] == "true"
        # numeric cells round-trip as IEEE doubles
        z = Triple(Vec3(*map(float, cells[0:3])), Vec3(*map(float, cells[3:6])),
                   Vec3(*map(float, cells[6:9])))
        assert in_hull(z, P11)
        assert float(cells[10]) == pytest.approx(eval_g1(z), abs=1e-15)


def test_report_json_contract():
    cfg = SampleConfig(seed=17, count=200, params=P11)
    d = two_sided_hull_check(cfg).to_json_dict()
    assert {"seed", "kind", "r", "s", "checked", "failures",
            "max_residual", "failure_count"} <= set(d)
    # The stream revision a report was drawn from; every item reads a fixed
    # number of draws, so there are no attempts to count.
    assert d["stream_version"] == 6
    assert "pair_attempts" not in d
    json.dumps(d)  # serializable


def test_parallel_and_antiparallel_B_draws_give_valid_pairs(monkeypatch):
    # B2 = B1 (the constant stream, and a stream that repeats B1's draws) and
    # B2 = -B1 (heights 0 and 1: B1 = -z, B2 = +z) make B1 x B2 = 0, so the
    # circle takes the fixed axis; every u2 on the sphere meets the cone
    # condition there.  Each pair reads its 8 draws.
    count = 6
    p = HullParams(0.5, 2.0)
    streams = {"equal": (np.full(8 * count, 0.5), 1.0),
               "equal, u apart": (np.tile([0.3, 0.1, 0.7, 0.9, 0.3, 0.1, 0.4, 0.5], count), 1.0),
               "opposite": (np.tile([0.0, 0.3, 0.6, 0.2, 1.0, 0.8, 0.7, 0.5], count), -1.0)}
    for kind in ALL_KINDS:
        cfg = SampleConfig(seed=0, count=count, params=p, kind=kind)
        for name, (draws, sign) in streams.items():
            fake = ListStream(draws)
            monkeypatch.setattr(oracle, "_generator", lambda cfg: fake)
            pairs = list(sample_lambda_pair(cfg))
            assert len(pairs) == count and fake.i == 8 * count, name
            for z1, z2 in pairs:
                assert z2.B == z1.B * sign, name
                assert in_constraint_set(z1, p) and in_constraint_set(z2, p), name
                dz = z1 - z2
                assert abs(dz.B.dot(dz.E)) <= 1e-14 * (1.0 + dz.B.norm() * dz.E.norm()), name
                if kind.restricts_u:
                    assert abs(dz.u.dot(dz.E)) <= 1e-14 * (1.0 + dz.u.norm() * dz.E.norm()), name
