"""Acceptance suite: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion.  The heavy two-sided campaigns (criteria 1, 2, 8, 9) share a
module-scoped fixture so they are generated once.
"""

import math

import numpy as np
import pytest

from dynamohull import (
    ConeKind,
    GridSpec,
    HullParams,
    SampleConfig,
    Tolerances,
    Triple,
    Vec3,
    decompose,
    eval_g1,
    eval_g2,
    eval_g3,
    in_constraint_set,
    in_hull,
    plane_wave_conditions,
    refinement_study,
    sample_hull,
    staircase_average,
    two_sided_hull_check,
    wave_vector_for,
    WaveVector,
)
from dynamohull.cli import main as cli_main
from _helpers import ALL_KINDS, cone_direction, g2_grid_max, normalized, unit, vec

RADII = (0.5, 1.0, 2.0)
LAMINATE_COUNT = 100_000
DECOMPOSE_COUNT = 10_000
CAMPAIGN_SEED = 0

INNER_TOL = Tolerances(eps_mem=1e-10)  # membership and verification slack of both halves


def _report(capsys, num: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    line = f"ACCEPTANCE {num} {name}: {status}{suffix}"
    # Bypass capture so the per-criterion verdict always reaches the terminal.
    with capsys.disabled():
        print(line)


def _run_campaign(kind: ConeKind, r: float, s: float):
    cfg = SampleConfig(seed=CAMPAIGN_SEED, count=LAMINATE_COUNT,
                       params=HullParams(r, s), kind=kind)
    return two_sided_hull_check(cfg, INNER_TOL)


@pytest.fixture(scope="module")
def campaigns():
    reports = {}
    for kind in (ConeKind.NONSTATIONARY, ConeKind.STATIONARY_INCOMPRESSIBLE):
        for r in RADII:
            for s in RADII:
                reports[(kind, r, s)] = _run_campaign(kind, r, s)
    return reports


def _campaign_problems(rep, expect_stationary_extras: bool):
    problems = []
    if rep.checked["laminate"] != LAMINATE_COUNT:
        problems.append(f"laminate count {rep.checked['laminate']}")
    if rep.checked["decompose"] != DECOMPOSE_COUNT:
        problems.append(f"decompose count {rep.checked['decompose']}")
    if rep.failed["laminate"]:
        problems.append(f"{rep.failed['laminate']} membership failures")
    if rep.failed["decompose"]:
        problems.append(f"{rep.failed['decompose']} decomposition failures")
    if rep.max_verify_residual > 1e-9:
        problems.append(f"verify residual {rep.max_verify_residual}")
    if expect_stationary_extras:
        if rep.max_u_orthogonality is None or rep.max_u_orthogonality > 1e-9:
            problems.append(f"u.E residual {rep.max_u_orthogonality}")
        if rep.max_mixing_orthogonality is None or rep.max_mixing_orthogonality > 1e-9:
            problems.append(f"u.(Bbar x ubar) residual {rep.max_mixing_orthogonality}")
    return problems


def test_criterion_1_two_sided_hull_equality(campaigns, capsys):
    problems = []
    for r in RADII:
        for s in RADII:
            rep = campaigns[(ConeKind.NONSTATIONARY, r, s)]
            for msg in _campaign_problems(rep, expect_stationary_extras=False):
                problems.append(f"(r={r}, s={s}): {msg}")
    ok = not problems
    _report(capsys, 1, "two-sided hull equality", ok,
            f"9 radii configs, {LAMINATE_COUNT} mixtures + {DECOMPOSE_COUNT} "
            f"decompositions each")
    assert ok, problems


def test_criterion_2_stationary_incompressible_equality(campaigns, capsys):
    problems = []
    for r in RADII:
        for s in RADII:
            rep = campaigns[(ConeKind.STATIONARY_INCOMPRESSIBLE, r, s)]
            for msg in _campaign_problems(rep, expect_stationary_extras=True):
                problems.append(f"(r={r}, s={s}): {msg}")
    ok = not problems
    _report(capsys, 2, "stationary incompressible hull equality", ok,
            "same campaign plus u-orthogonality checks")
    assert ok, problems


def test_criterion_3_g2_closed_form_vs_grid(capsys):
    # The 1e-4-spaced grid resolves the inner maximum to ~5e-9*c only while
    # the maximiser stays central; amplitude-matched draws (|B| = |u|) pin
    # it there, so the comparison is a genuine test of the closed form
    # rather than of the grid's resolution.  Off-centre maximisers are
    # covered by the golden-section comparison in the unit suite.
    rng = np.random.default_rng(CAMPAIGN_SEED)
    p = HullParams(1.0, 1.0)
    worst = 0.0
    for _ in range(10_000):
        amp = rng.uniform(0.0, 1.2)
        B = unit(rng) * amp
        u = unit(rng) * amp
        E = B.cross(u) + unit(rng) * rng.uniform(0.0, 1.2)
        z = Triple(B, u, E)
        worst = max(worst, abs(eval_g2(z, p) - g2_grid_max(z, p)))
    ok = worst <= 1e-8
    _report(capsys, 3, "closed-form excess function vs grid maximisation", ok,
            f"max discrepancy {worst:.3g}")
    assert ok, worst


def test_criterion_4_affinity_and_convexity(capsys):
    rng = np.random.default_rng(CAMPAIGN_SEED)
    p = HullParams(1.1, 0.9)
    worst_g1 = 0.0
    worst_g3 = 0.0
    worst_convexity = 0.0
    for _ in range(10_000):
        z0 = Triple(vec(rng, 2.0), vec(rng, 2.0), vec(rng, 2.0))
        t = rng.uniform(-1.0, 1.0)

        z = cone_direction(rng, ConeKind.NONSTATIONARY)
        plus, minus, mid = eval_g1(z0 + z * t), eval_g1(z0 - z * t), eval_g1(z0)
        scale = 1.0 + abs(plus) + abs(minus) + 2.0 * abs(mid)
        worst_g1 = max(worst_g1, abs(plus + minus - 2.0 * mid) / scale)

        zs = cone_direction(rng, ConeKind.STATIONARY_INCOMPRESSIBLE)
        plus, minus, mid = eval_g3(z0 + zs * t), eval_g3(z0 - zs * t), eval_g3(z0)
        scale = 1.0 + abs(plus) + abs(minus) + 2.0 * abs(mid)
        worst_g3 = max(worst_g3, abs(plus + minus - 2.0 * mid) / scale)

        w = Triple(vec(rng), vec(rng), vec(rng))
        violation = eval_g2(z0, p) - 0.5 * (eval_g2(z0 + w * t, p)
                                            + eval_g2(z0 - w * t, p))
        worst_convexity = max(worst_convexity, violation)
    ok = worst_g1 <= 1e-10 and worst_g3 <= 1e-10 and worst_convexity <= 1e-8
    _report(capsys, 4, "cone-affinity of g1/g3 and convexity of g2", ok,
            f"second differences {worst_g1:.3g}/{worst_g3:.3g}, "
            f"convexity violation {worst_convexity:.3g}")
    assert ok, (worst_g1, worst_g3, worst_convexity)


def test_criterion_5_boundary_collapse(capsys):
    rng = np.random.default_rng(CAMPAIGN_SEED)
    rejected = 0
    total = 1000
    for i in range(total):
        r = RADII[i % 3]
        s = RADII[(i // 3) % 3]
        p = HullParams(r, s)
        B = unit(rng) * r
        u = unit(rng) * rng.uniform(0.0, s)
        e = unit(rng)
        e = normalized(e - B * (e.dot(B) / B.norm2()))
        z = Triple(B, u, B.cross(u) + e * 1e-3)
        if not in_hull(z, p):
            rejected += 1
    ok = rejected == total
    _report(capsys, 5, "boundary collapse of the excess bound", ok,
            f"{rejected}/{total} rejected")
    assert ok


def test_criterion_6_plane_wave_conditions_and_convergence(capsys):
    rng = np.random.default_rng(CAMPAIGN_SEED)
    worst = 0.0
    per_kind = 2500
    for kind in ALL_KINDS:
        for _ in range(per_kind):
            direction = cone_direction(rng, kind, scale=2.0)
            xi = wave_vector_for(direction, kind)
            res = plane_wave_conditions(direction, xi, kind)
            scale = 1.0 + xi.norm() * direction.norm()
            worst = max(worst, max(res["gauss"], res["faraday"]) / scale)
    conditions_ok = worst <= 1e-12

    direction = Triple(Vec3(6, -3, -1), Vec3(1, 2, -1), Vec3(1, 2, 0))
    xi = WaveVector(Vec3(1, 1, 3), 1.0)
    study = refinement_study(direction, xi, ConeKind.NONSTATIONARY, (8, 16, 32))
    ratios = study["ratios"]["div_B"] + study["ratios"]["faraday"]
    ratios_ok = all(r is not None and r >= 3.0 for r in ratios)

    ok = conditions_ok and ratios_ok
    _report(capsys, 6, "plane-wave conditions and grid convergence", ok,
            f"worst condition residual {worst:.3g}, "
            f"ratios {[None if r is None else round(r, 2) for r in ratios]}")
    assert ok, (worst, ratios)


def test_criterion_7_staircase_averaging(capsys):
    p = HullParams(1.0, 1.0)
    cfg = SampleConfig(seed=CAMPAIGN_SEED, count=100, params=p)
    grid = GridSpec(48)
    ratio_failures = []
    membership_failures = []
    checked_ratio = 0
    checked_membership = 0
    for z in sample_hull(cfg):
        d = decompose(z, p)
        dz = d.z1 - d.z2
        if dz.norm() < 1e-9:
            continue
        xi = wave_vector_for(dz, ConeKind.NONSTATIONARY)
        reports = [staircase_average(d, xi, n, grid) for n in (8, 16, 32)]
        errors = [rep.error for rep in reports]
        checked_ratio += 1
        for coarse, fine in zip(errors, errors[1:]):
            ratio = fine / coarse if coarse > 0 else math.inf
            if not 0.3 <= ratio <= 0.7:
                ratio_failures.append((z, errors))
                break
        for rep in reports:
            if not in_hull(rep.average, p):
                membership_failures.append(("hull", z))
        if 0.1 < d.lam < 0.9:
            checked_membership += 1
            for rep in reports:
                if in_constraint_set(rep.average, p):
                    membership_failures.append(("constraint", z))
    ok = (not ratio_failures and not membership_failures
          and checked_ratio == 100 and checked_membership > 50)
    _report(capsys, 7, "staircase averaging error decay", ok,
            f"{checked_ratio} decompositions, {checked_membership} strict-mixture checks")
    assert ok, (ratio_failures[:3], membership_failures[:3],
                checked_ratio, checked_membership)


def test_criterion_8_weight_amplitude_identity(campaigns, capsys):
    worst = 0.0
    for rep in campaigns.values():
        worst = max(worst, rep.max_residual_by_check.get("weight_amplitude_identity", 0.0))
    ok = worst <= 1e-9
    _report(capsys, 8, "weight-amplitude product identity", ok,
            f"max residual {worst:.3g} over "
            f"{sum(r.checked['decompose'] for r in campaigns.values())} decompositions")
    assert ok, worst


def test_criterion_9_determinism(campaigns, tmp_path, capsys):
    # In-process: re-running one full criterion-1 configuration reproduces
    # the stored report byte for byte.
    rep_again = _run_campaign(ConeKind.NONSTATIONARY, 1.0, 1.0)
    stored = campaigns[(ConeKind.NONSTATIONARY, 1.0, 1.0)]
    in_process_ok = rep_again.to_json() == stored.to_json()

    # CLI: identical command lines under --deterministic give byte-identical
    # report files (same code path as the full campaign, reduced count).
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        code = cli_main(["verify-hull", "--count", "20000", "--seed",
                         str(CAMPAIGN_SEED), "--deterministic",
                         "--output", str(path)])
        assert code == 0
    cli_ok = paths[0].read_bytes() == paths[1].read_bytes()

    ok = in_process_ok and cli_ok
    _report(capsys, 9, "byte-identical deterministic reports", ok,
            f"in-process repeat {'==' if in_process_ok else '!='} stored; "
            f"CLI files {'identical' if cli_ok else 'differ'}")
    assert ok
