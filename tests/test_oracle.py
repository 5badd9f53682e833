import io
import json

import numpy as np
import pytest

from dynamohull import (
    ConeKind,
    HullParams,
    SampleConfig,
    Tolerances,
    Triple,
    Vec3,
    eval_g1,
    eval_g3,
    hull_excess_bound,
    in_constraint_set,
    in_hull,
    sample_K,
    sample_first_laminate,
    sample_hull,
    sample_lambda_pair,
    two_sided_hull_check,
    write_samples_csv,
)
from dynamohull import oracle
from _helpers import ALL_KINDS, reference_pair_block
from test_blocks import ListStream

P11 = HullParams(1.0, 1.0)


def test_sample_config_validation():
    with pytest.raises(ValueError):
        SampleConfig(seed=0, count=-1, params=P11)


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
    # normal (B1 - B2) x u1 is as small, so a few reach the clip of ratio,
    # and about half fall under the bound of the free branch, keeping the
    # drawn angle up to about 2e-12 off the second plane: inside the
    # sampler's 1e-10 guard, and not reached by a stream's draws.
    p = HullParams(*radii)
    n, m = 20_000, 2_000
    w = oracle._generator(SampleConfig(seed=42, count=0, params=p)).random(7 * n).reshape(n, 7)
    near = w[:m].copy()
    near[:, 4:6] = near[:, 0:2] + 1e-12 * np.random.default_rng(0).uniform(-1.0, 1.0, (m, 2))
    w = np.concatenate((w, near))
    z1, z2, res = oracle._pair_block(w, p, kind.restricts_u)
    ref, ref_res = reference_pair_block(w, p, kind.restricts_u)
    rows = oracle._stack(z1, z2)

    assert res[:n].max() <= 1e-14
    assert res.max() <= 1e-10 if kind.restricts_u else res.max() <= 1e-14
    if kind.restricts_u:
        # The libm angle goes through acos, which is ill-conditioned near
        # |ratio| = 1, so the two placements differ by more than rounding.
        unit = np.tile(np.repeat([p.r, p.s, p.r * p.s], 3), 2)
        assert np.abs(rows / unit - ref / unit).max() <= 1e-10
    else:
        assert (rows.view(np.uint64) == ref.view(np.uint64)).all()
        assert (res.view(np.uint64) == ref_res.view(np.uint64)).all()


def test_coincident_planes_keep_the_drawn_angle(monkeypatch):
    # u1's draws repeat B1's, so u1 = B1 and E1 = B1 x B1 = 0 exactly.  The
    # second plane u2 . (B1 x B2) = 0 is then the circle's own plane, amp is
    # rounding noise below the degeneracy bound, and every pair keeps the
    # drawn angle, as the libm reference places it.
    count = 3000
    p = HullParams(0.5, 2.0)
    cfg = SampleConfig(seed=29, count=count, params=p, kind=ConeKind.STATIONARY_INCOMPRESSIBLE)
    w = oracle._generator(cfg).random(7 * count).reshape(count, 7)
    w[:, 2:4] = w[:, 0:2]
    fake = ListStream(w.ravel())
    monkeypatch.setattr(oracle, "_generator", lambda cfg: fake)
    pairs = list(sample_lambda_pair(cfg))
    assert len(pairs) == count
    assert fake.i == 7 * count
    ref, ref_res = reference_pair_block(w, p, True)
    assert ref_res.max() <= 1e-14
    rows = np.array([[*z1.B, *z1.u, *z1.E, *z2.B, *z2.u, *z2.E] for z1, z2 in pairs])
    assert (rows[:, 6:9] == 0.0).all()
    assert (rows.view(np.uint64) == ref.view(np.uint64)).all()

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
    tol = Tolerances(eps_mem=1e-10, eps_root=1e-13)
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
            bound = hull_excess_bound(z.B, z.u, cfg.params)
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
    assert d["stream_version"] == 3
    assert "pair_attempts" not in d
    json.dumps(d)  # serializable


def test_parallel_and_antiparallel_B_draws_give_valid_pairs(monkeypatch):
    # B2 = B1 (the constant stream, and a stream that repeats B1's draws) and
    # B2 = -B1 (heights 0 and 1: B1 = -z, B2 = +z) make B1 x B2 = 0, so the
    # circle takes the fixed axis; every u2 on the sphere meets the cone
    # condition there.  Each pair reads its 7 draws.
    count = 6
    p = HullParams(0.5, 2.0)
    streams = {"equal": (np.full(7 * count, 0.5), 1.0),
               "equal, u apart": (np.tile([0.3, 0.1, 0.7, 0.9, 0.3, 0.1, 0.4], count), 1.0),
               "opposite": (np.tile([0.0, 0.3, 0.6, 0.2, 1.0, 0.8, 0.7], count), -1.0)}
    for kind in ALL_KINDS:
        cfg = SampleConfig(seed=0, count=count, params=p, kind=kind)
        for name, (draws, sign) in streams.items():
            fake = ListStream(draws)
            monkeypatch.setattr(oracle, "_generator", lambda cfg: fake)
            pairs = list(sample_lambda_pair(cfg))
            assert len(pairs) == count and fake.i == 7 * count, name
            for z1, z2 in pairs:
                assert z2.B == z1.B * sign, name
                assert in_constraint_set(z1, p) and in_constraint_set(z2, p), name
                dz = z1 - z2
                assert abs(dz.B.dot(dz.E)) <= 1e-14 * (1.0 + dz.B.norm() * dz.E.norm()), name
                if kind.restricts_u:
                    assert abs(dz.u.dot(dz.E)) <= 1e-14 * (1.0 + dz.u.norm() * dz.E.norm()), name
