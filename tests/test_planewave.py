import hashlib
import json
import math

import numpy as np
import pytest

from dynamohull import (
    ConeKind,
    Decomposition,
    GridSpec,
    HullParams,
    LatticeError,
    NotInConeError,
    SampleConfig,
    Triple,
    Vec3,
    decompose,
    eval_g1,
    grid_residual,
    in_constraint_set,
    in_hull,
    plane_wave_conditions,
    refinement_study,
    round_to_lattice,
    sample_hull,
    sample_lambda_pair,
    staircase_average,
    wave_vector_for,
    WaveVector,
)
from dynamohull import planewave
from dynamohull.cli import _RESIDUAL_WAVES, main as cli_main
from _helpers import (
    ALL_KINDS,
    cone_direction,
    reference_grid_residual,
    reference_staircase_average,
    reference_wave_vector_for,
)

P11 = HullParams(1.0, 1.0)
ZERO = Vec3(0, 0, 0)

# Shared-cone direction whose frame construction lands on a small integer
# frequency; every conservation equation keeps a genuine O(h^2) term.
CANONICAL_DIR = Triple(Vec3(6, -3, -1), Vec3(1, 2, -1), Vec3(1, 2, 0))
CANONICAL_XI = WaveVector(Vec3(1, 1, 3), 1.0)


def _condition_scale(direction, xi):
    return 1.0 + xi.norm() * direction.norm()


# ------------------------------------------------------------- validation

def test_wave_vector_requires_nonzero_spatial_frequency():
    for zero in (Vec3(0, 0, 0), Vec3(0.0, -0.0, 0.0)):
        with pytest.raises(ValueError, match="must be nonzero"):
            WaveVector(zero, 1.0)


def _faraday(xi: WaveVector, direction: Triple) -> tuple:
    """xi_t B + xi_x x E, component by component, with no norm taken."""
    (kx, ky, kz), xi_t = xi
    (bx, by, bz), _, (ex, ey, ez) = direction
    return (xi_t * bx + (ky * ez - kz * ey), xi_t * by + (kz * ex - kx * ez),
            xi_t * bz + (kx * ey - ky * ex))


def test_a_frequency_whose_square_underflows_is_nonzero():
    # (1e-200)^2 underflows to 0.0, but the frequency is not zero: zero is
    # decided by components.
    assert WaveVector(Vec3(1e-200, 0, 0), 0.0).xi_x == (1e-200, 0.0, 0.0)
    assert WaveVector(Vec3(0, -5e-324, 0), 2.0).xi_t == 2.0


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_a_field_whose_square_underflows_sets_the_wave(kind):
    # B = u = 0 and E = (1e-200, 0, 0): |E|^2 underflows to 0.0, but E is not
    # zero, so xi_x must be parallel to it.  A unit xi_x perpendicular to B
    # and u, the E = 0 answer, leaves xi_x x E = (0, 0, -1e-200).
    E = Vec3(1e-200, 0, 0)
    direction = Triple(ZERO, ZERO, E)
    xi = wave_vector_for(direction, kind)
    assert xi == (E, 0.0)
    assert _faraday(xi, direction) == (0.0, 0.0, 0.0)


def test_a_tiny_field_beside_a_unit_B_sets_the_wave():
    # B = (0, 0, 1) and E = (1e-200, 0, 0) take the general branch, not the
    # E = 0 one, whose xi_x = (0, 1, 0) leaves xi_x x E = (0, 0, -1e-200).
    direction = Triple(Vec3(0, 0, 1), ZERO, Vec3(1e-200, 0, 0))
    xi = wave_vector_for(direction, ConeKind.NONSTATIONARY)
    assert xi.xi_x == (1e-200, -1e-200, 0.0)
    assert _faraday(xi, direction) == (0.0, 0.0, 0.0)


def test_wave_vector_rejects_non_finite_spatial_frequency():
    # Vec3 arithmetic is unchecked: a large coefficient overflows xi_x, and a
    # NaN one would reach is_lattice's round().  Both raise ValueError here.
    direction = Triple(Vec3(1, 0, 0), Vec3(0, 1, 0), Vec3(0, 0, 1e300))
    for a in (1e10, math.nan):
        with pytest.raises(ValueError, match="non-finite spatial frequency"):
            wave_vector_for(direction, ConeKind.STATIONARY, a=a)
    with pytest.raises(ValueError, match="non-finite spatial frequency"):
        WaveVector(Vec3(0, 0, 1) * math.inf, 0.0)


def test_zero_coefficients_raise_on_the_time_dependent_shared_cone():
    # With Bbar and Ebar nonzero, (a, c) = (0, 0) gives no spatial frequency
    # on the time-dependent kinds, and the error names the coefficients.  With
    # u parallel to B the incompressible solve's functional vanishes, so the
    # given coefficients stand.
    u_along_B = Triple(Vec3(6, -3, -1), Vec3(12, -6, -2), Vec3(1, 2, 0))
    for direction, kind in ((CANONICAL_DIR, ConeKind.NONSTATIONARY),
                            (u_along_B, ConeKind.NONSTATIONARY_INCOMPRESSIBLE)):
        with pytest.raises(ValueError, match=r"coefficients \(a, c\) = \(0\.0, 0\.0\)"):
            wave_vector_for(direction, kind, a=0.0, c=0.0)


def test_zero_coefficients_keep_the_stationary_and_B_zero_results():
    # The stationary kinds and Bbar = 0 take a = 1 in place of a = 0.
    xi = WaveVector(Vec3(1, 2, 0), 0.0)
    assert wave_vector_for(CANONICAL_DIR, ConeKind.STATIONARY, a=0.0, c=0.0) == xi
    b_zero = Triple(ZERO, CANONICAL_DIR.u, CANONICAL_DIR.E)
    assert wave_vector_for(b_zero, ConeKind.NONSTATIONARY, a=0.0, c=0.0) == xi


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(3)
    with pytest.raises(ValueError):
        GridSpec(7)
    with pytest.raises(ValueError):
        GridSpec(8, periods=0)
    assert GridSpec(8).h == pytest.approx(2.0 * math.pi / 8.0)
    assert GridSpec(8, periods=3).h == pytest.approx(3 * 2.0 * math.pi / 8.0)


def test_grid_spec_rejects_non_integral_sizes():
    with pytest.raises(ValueError, match="got 48.9"):
        GridSpec(48.9)
    with pytest.raises(ValueError, match="got 1.9"):
        GridSpec(32, periods=1.9)
    assert GridSpec(48.0, periods=2.0) == GridSpec(48, periods=2)
    # Non-finite sizes get GridSpec's own messages, not int()'s.
    with pytest.raises(ValueError, match="even integer count .* got inf"):
        GridSpec(math.inf)
    with pytest.raises(ValueError, match="even integer count .* got nan"):
        GridSpec(math.nan)
    with pytest.raises(ValueError, match="periods must be a positive integer, got inf"):
        GridSpec(4, math.inf)


# -------------------------------------------------------- wave vectors

def test_wave_vector_frame_example():
    direction = Triple(Vec3(1, 0, 0), ZERO, Vec3(0, 1, 0))
    xi = wave_vector_for(direction, ConeKind.NONSTATIONARY, a=1.0, c=1.0)
    assert list(xi.xi_x) == pytest.approx([0.0, 1.0, -1.0])
    assert xi.xi_t == pytest.approx(-1.0)
    res = plane_wave_conditions(direction, xi)
    assert res["gauss"] == pytest.approx(0.0, abs=1e-15)
    assert res["faraday"] == pytest.approx(0.0, abs=1e-15)


def test_wave_vector_stationary_incompressible_uses_field_mixing_axis():
    direction = Triple(Vec3(1, 0, 0), Vec3(0, 1, 0), Vec3(0, 0, 0.7))
    xi = wave_vector_for(direction, ConeKind.STATIONARY_INCOMPRESSIBLE)
    assert list(xi.xi_x) == pytest.approx([0.0, 0.0, 1.0])
    assert xi.xi_t == 0.0
    # E x xi = 0 and B . xi = u . xi = 0
    assert direction.E.cross(xi.xi_x).norm() == pytest.approx(0.0, abs=1e-15)
    assert abs(direction.B.dot(xi.xi_x)) == pytest.approx(0.0, abs=1e-15)
    assert abs(direction.u.dot(xi.xi_x)) == pytest.approx(0.0, abs=1e-15)


def test_wave_vector_free_direction():
    direction = Triple(ZERO, Vec3(0.3, 0.1, -0.5), ZERO)
    for kind in ALL_KINDS:
        xi = wave_vector_for(direction, kind)
        assert xi.xi_x.norm() == pytest.approx(1.0)
        assert xi.xi_t == 0.0
        if kind.incompressible:
            assert plane_wave_conditions(direction, xi, kind)["u_div"] <= 1e-15


def test_wave_vector_degenerate_branches():
    # E = 0, B != 0: spatial frequency perpendicular to B, no time frequency.
    d1 = Triple(Vec3(0, 2, 0), Vec3(1, 0, 0), ZERO)
    xi1 = wave_vector_for(d1, ConeKind.NONSTATIONARY)
    assert abs(d1.B.dot(xi1.xi_x)) < 1e-15
    assert xi1.xi_t == 0.0
    # B = 0, E != 0: spatial frequency parallel to E.
    d2 = Triple(ZERO, Vec3(1, 0, 0), Vec3(0, 0, 3))
    xi2 = wave_vector_for(d2, ConeKind.NONSTATIONARY)
    assert xi2.xi_x.cross(d2.E).norm() < 1e-15
    assert xi2.xi_t == 0.0


def test_wave_vector_rejects_non_cone_direction():
    bad = Triple(Vec3(1, 0, 0), ZERO, Vec3(0.5, 0, 0))
    with pytest.raises(NotInConeError):
        wave_vector_for(bad, ConeKind.NONSTATIONARY)
    bad_stationary = Triple(Vec3(1, 0, 0), Vec3(0, 0, 1), Vec3(0, 0, 0.5))
    with pytest.raises(NotInConeError):
        wave_vector_for(bad_stationary, ConeKind.STATIONARY_INCOMPRESSIBLE)


def _wave_vector_directions(rng):
    """Directions for every branch of wave_vector_for: random cone directions
    of both cones at three scales, B = 0, E = 0, both, u = 0, u parallel to B
    (the incompressible functional vanishes), E along and across B x u, and
    B x u = 0."""
    zero = Vec3(0, 0, 0)
    for scale in (1e-3, 1.0, 1e3):
        for _ in range(25):
            for kind in (ConeKind.NONSTATIONARY, ConeKind.STATIONARY_INCOMPRESSIBLE):
                z = cone_direction(rng, kind)
                yield Triple(z.B * scale, z.u, z.E * scale)
    b, u, e = Vec3(6, -3, -1), Vec3(1, 2, -1), Vec3(1, 2, 0)
    n = b.cross(u)
    yield from (CANONICAL_DIR, Triple(zero, u, e), Triple(b, u, zero), Triple(zero, u, zero),
                Triple(b, zero, e), Triple(b, b * 2.0, e), Triple(zero, zero, e),
                Triple(b, u, n * 1e-3), Triple(b, u, n * 1e3), Triple(b, b * -0.5, zero),
                Triple(zero, zero, zero))


COEFFICIENTS = ((1.0, 1.0), (0.6, -0.2), (0.0, 0.0), (0.0, 1.0), (2.5, 0.0), (-1.0, 3.0))


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_wave_vector_matches_reference_bit_for_bit(kind):
    # Every branch and the (a, c) fallbacks give the reference's frequencies to
    # the last bit, and raise where it raises.
    for direction in _wave_vector_directions(np.random.default_rng(262)):
        for a, c in COEFFICIENTS:
            try:
                want = reference_wave_vector_for(direction, kind, a, c)
            except (NotInConeError, ValueError) as exc:
                with pytest.raises(type(exc)):
                    wave_vector_for(direction, kind, None, a, c)
                continue
            xi = wave_vector_for(direction, kind, None, a, c)
            assert [x.hex() for x in xi.xi_x] == [x.hex() for x in want[0]], (direction, a, c)
            assert xi.xi_t.hex() == want[1].hex(), (direction, a, c)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_wave_vector_conditions_on_random_directions(kind):
    rng = np.random.default_rng(31)
    for _ in range(1000):
        direction = cone_direction(rng, kind, scale=2.0)
        xi = wave_vector_for(direction, kind)
        res = plane_wave_conditions(direction, xi, kind)
        scale = _condition_scale(direction, xi)
        assert res["gauss"] <= 1e-12 * scale
        assert res["faraday"] <= 1e-12 * scale


def test_wave_vector_incompressible_kills_velocity_divergence():
    rng = np.random.default_rng(32)
    for _ in range(500):
        direction = cone_direction(rng, ConeKind.NONSTATIONARY_INCOMPRESSIBLE)
        if direction.B.norm() == 0.0 or direction.E.norm() == 0.0:
            continue
        xi = wave_vector_for(direction, ConeKind.NONSTATIONARY_INCOMPRESSIBLE)
        res = plane_wave_conditions(direction, xi, ConeKind.NONSTATIONARY_INCOMPRESSIBLE)
        scale = _condition_scale(direction, xi)
        assert res["u_div"] <= 1e-12 * scale


def test_wave_vector_stationary_kind_is_time_independent():
    rng = np.random.default_rng(33)
    for _ in range(200):
        direction = cone_direction(rng, ConeKind.STATIONARY)
        xi = wave_vector_for(direction, ConeKind.STATIONARY)
        assert xi.xi_t == 0.0
        res = plane_wave_conditions(direction, xi, ConeKind.STATIONARY)
        assert res["faraday"] <= 1e-12 * _condition_scale(direction, xi)


def test_no_frequency_exists_outside_the_cone():
    # Sanity search, not a proof: for a direction with B . E != 0 the
    # condition residual stays bounded away from zero over random unit
    # frequencies.
    rng = np.random.default_rng(34)
    direction = Triple(Vec3(1, 0, 0), Vec3(0.2, -0.4, 0.1), Vec3(0.5, 0.8, 0))
    assert abs(eval_g1(direction)) > 0.4
    best = math.inf
    for _ in range(1000):
        v = rng.normal(size=4)
        v /= np.linalg.norm(v)
        if abs(v[0]) + abs(v[1]) + abs(v[2]) < 1e-3:
            continue
        xi = WaveVector(Vec3(v[0], v[1], v[2]), v[3])
        res = plane_wave_conditions(direction, xi)
        best = min(best, max(res["gauss"], res["faraday"]))
    assert best > 1e-2


# ------------------------------------------------------ lattice rounding

def test_round_to_lattice_passthrough():
    xi = round_to_lattice(CANONICAL_XI, CANONICAL_DIR)
    assert list(xi.xi_x) == [1.0, 1.0, 3.0]
    assert xi.xi_t == 1.0


def test_round_to_lattice_rescales_commensurable_frequency():
    xi_half = wave_vector_for(CANONICAL_DIR, ConeKind.NONSTATIONARY, a=0.3, c=-0.1)
    assert list(xi_half.xi_x) == pytest.approx([0.5, 0.5, 1.5])
    xi = round_to_lattice(xi_half, CANONICAL_DIR)
    assert list(xi.xi_x) == [1.0, 1.0, 3.0]
    assert xi.xi_t == 1.0


def test_round_to_lattice_resolves_time_frequency():
    # Correct spatial direction but broken time component: Faraday's
    # relation gives the rounded lattice direction its time frequency.
    broken = WaveVector(Vec3(1, 1, 3), 0.25)
    fixed = round_to_lattice(broken, CANONICAL_DIR)
    assert list(fixed.xi_x) == [1.0, 1.0, 3.0]
    assert fixed.xi_t == 1.0
    res = plane_wave_conditions(CANONICAL_DIR, fixed)
    assert max(res["gauss"], res["faraday"]) <= 1e-10


def test_round_to_lattice_checks_div_u_on_incompressible_kinds():
    # (1, 2, 0; 0) satisfies Gauss and Faraday on the CLI's shared direction,
    # but ubar . xi_x = 5: its div u residual does not converge on any grid.
    # On the incompressible kind no rescaling of it passes; the compressible
    # kind, which has no div u condition, keeps it unchanged.
    kind = ConeKind.NONSTATIONARY_INCOMPRESSIBLE
    direction = _RESIDUAL_WAVES[kind][0]
    xi = WaveVector(Vec3(1, 2, 0), 0.0)
    assert plane_wave_conditions(direction, xi, kind) == {"gauss": 0.0, "faraday": 0.0,
                                                          "u_div": 5.0}
    with pytest.raises(LatticeError):
        round_to_lattice(xi, direction, kind)
    assert round_to_lattice(xi, direction, ConeKind.NONSTATIONARY) == xi


def test_round_to_lattice_rejects_incommensurable_direction():
    e = Vec3(1.0, math.pi, 0.0)
    b = Vec3(math.pi, -1.0, 0.0)
    direction = Triple(b, ZERO, e)
    xi = wave_vector_for(direction, ConeKind.STATIONARY)
    with pytest.raises(LatticeError):
        round_to_lattice(xi, direction, ConeKind.STATIONARY)


# -------------------------------------------------------- grid residuals

def test_grid_residual_zero_direction_is_exact():
    direction = Triple(ZERO, ZERO, ZERO)
    rep = grid_residual(direction, CANONICAL_XI, GridSpec(8), ConeKind.NONSTATIONARY)
    assert rep.residuals["div_B"] == 0.0
    assert rep.residuals["faraday"] == 0.0


def test_grid_residual_axis_aligned_exact_cancellation():
    # B along x, frequency along z: the only nonzero phase increment pairs
    # with a zero field component, so the discrete divergence vanishes to
    # rounding.
    direction = Triple(Vec3(1, 0, 0), ZERO, ZERO)
    xi = wave_vector_for(direction, ConeKind.NONSTATIONARY)
    assert list(xi.xi_x) == pytest.approx([0.0, 0.0, 1.0])
    rep = grid_residual(direction, xi, GridSpec(16), ConeKind.NONSTATIONARY)
    assert rep.residuals["div_B"] <= 1e-13
    assert rep.residuals["faraday"] <= 1e-13


def test_grid_residual_requires_lattice_frequencies():
    with pytest.raises(ValueError):
        grid_residual(CANONICAL_DIR, WaveVector(Vec3(1.0, 0.5, 3.0), 1.0),
                      GridSpec(8), ConeKind.NONSTATIONARY)


def test_grid_residual_requires_periodic_span():
    # The span is periods alone: h is derived from it and cannot be set, so
    # no grid handed to grid_residual spans a fractional number of periods.
    with pytest.raises(TypeError):
        grid_residual(CANONICAL_DIR, CANONICAL_XI, GridSpec(8, h=0.5),
                      ConeKind.NONSTATIONARY)
    for n, periods in ((8, 1), (16, 3), (32, 2)):
        g = GridSpec(n, periods=periods)
        assert n * g.h / (2.0 * math.pi) == pytest.approx(periods, abs=1e-12)


def test_grid_residual_rejects_grid_spanning_no_period():
    # A zero-period grid would give every phase index 0 and every residual
    # a false 0; GridSpec refuses to build one.
    for kind in (ConeKind.NONSTATIONARY, ConeKind.STATIONARY):
        with pytest.raises(ValueError, match="positive"):
            grid_residual(CANONICAL_DIR, CANONICAL_XI, GridSpec(8, periods=0), kind)


# The stationary-incompressible direction of `dynamohull residual`.
SI_DIR = Triple(Vec3(6, -3, -1), Vec3(2, -1, 3), Vec3(1, 2, 0))


def _kind_wave(kind):
    """The direction and lattice frequency `dynamohull residual` uses for kind."""
    if kind is ConeKind.NONSTATIONARY:
        return CANONICAL_DIR, CANONICAL_XI
    direction = SI_DIR if kind is ConeKind.STATIONARY_INCOMPRESSIBLE else CANONICAL_DIR
    return direction, round_to_lattice(wave_vector_for(direction, kind), direction, kind)


def _assert_matches_reference(direction, xi, g, kind):
    got = grid_residual(direction, xi, g, kind).residuals
    ref = reference_grid_residual(direction, xi, g, kind)
    assert list(got) == list(ref)
    for key, val in ref.items():
        if val > 1e-13:
            assert abs(got[key] - val) <= 1e-12 * val, (key, got[key], val)
        else:
            assert abs(got[key]) <= 1e-13, (key, got[key], val)


@pytest.mark.parametrize("periods", [1, 2])
@pytest.mark.parametrize("n", [8, 16, 32])
@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.label)
def test_grid_residual_matches_roll_reference(kind, n, periods):
    direction, xi = _kind_wave(kind)
    _assert_matches_reference(direction, xi, GridSpec(n, periods=periods), kind)


@pytest.mark.parametrize("periods", [1, 2])
def test_grid_residual_matches_roll_reference_on_special_waves(periods):
    axis_dir = Triple(Vec3(1, 0, 0), ZERO, ZERO)
    cases = [
        (CANONICAL_DIR, CANONICAL_XI),
        (SI_DIR, _kind_wave(ConeKind.STATIONARY_INCOMPRESSIBLE)[1]),
        # Axis-aligned exact cancellation: the reference is 0 to rounding.
        (axis_dir, wave_vector_for(axis_dir, ConeKind.NONSTATIONARY)),
        # Even frequencies: the grid reaches only the even phase residues.
        (CANONICAL_DIR, WaveVector(Vec3(2, 2, 6), 2.0)),
        # The z step is 0 mod n, so that axis adds no residue.
        (CANONICAL_DIR, WaveVector(Vec3(1, 2, 16), 0.0)),
        # Even space steps with an odd t step: time alone reaches the odd residues.
        (CANONICAL_DIR, WaveVector(Vec3(2, 2, 6), 1.0)),
        # c = 0 gives xi_t = 0: a time-independent wave of the time-dependent system.
        (CANONICAL_DIR, wave_vector_for(CANONICAL_DIR, ConeKind.NONSTATIONARY, c=0.0)),
    ]
    assert cases[-1][1].xi_t == 0.0
    for n in (8, 16):
        g = GridSpec(n, periods=periods)
        for direction, xi in cases:
            for kind in (ConeKind.NONSTATIONARY, ConeKind.STATIONARY_INCOMPRESSIBLE):
                _assert_matches_reference(direction, xi, g, kind)


def test_refinement_ratios_nonstationary():
    study = refinement_study(CANONICAL_DIR, CANONICAL_XI,
                             ConeKind.NONSTATIONARY, (8, 16, 32))
    for ratio in study["ratios"]["div_B"] + study["ratios"]["faraday"]:
        assert ratio is not None
        assert ratio >= 3.0


def test_refinement_ratios_incompressible_velocity():
    study = refinement_study(CANONICAL_DIR, CANONICAL_XI,
                             ConeKind.NONSTATIONARY_INCOMPRESSIBLE, (8, 16, 32))
    for ratio in study["ratios"]["div_u"]:
        assert ratio is not None
        assert ratio >= 3.0


def test_refinement_study_needs_a_level():
    with pytest.raises(ValueError, match="at least one grid level"):
        refinement_study(CANONICAL_DIR, CANONICAL_XI, ConeKind.NONSTATIONARY, ())


def test_refinement_ratios_stationary_incompressible():
    direction = Triple(Vec3(6, -3, -1), Vec3(2, -1, 3), Vec3(1, 2, 0))
    xi = wave_vector_for(direction, ConeKind.STATIONARY_INCOMPRESSIBLE)
    xi = round_to_lattice(xi, direction, ConeKind.STATIONARY_INCOMPRESSIBLE)
    study = refinement_study(direction, xi, ConeKind.STATIONARY_INCOMPRESSIBLE,
                             (8, 16, 32))
    for key in ("div_B", "faraday", "div_u"):
        for ratio in study["ratios"][key]:
            assert ratio is not None
            assert ratio >= 3.0


def test_grid_residual_magnitude_matches_truncation_estimate():
    # divergence residual = max |cos| * |sum_i B_i sin(h xi_i)| / h
    g = GridSpec(16)
    rep = grid_residual(CANONICAL_DIR, CANONICAL_XI, g, ConeKind.NONSTATIONARY)
    h = g.h
    expected = abs(6 * math.sin(h) - 3 * math.sin(h) - math.sin(3 * h)) / h
    assert rep.residuals["div_B"] == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize("label", ["nonstationary", "stationary-incompressible"])
def test_fine_grid_residual_equals_truncation_error(label, capsys):
    # On a sine the centred difference along axis i is cos(phase)
    # sin(xi_i h)/h and the grid contains phase 0, so each residual is the
    # modulus of the cos(phase) coefficient, to rounding.
    assert cli_main(["residual", "--n", "64", "--kind", label, "--deterministic"]) == 0
    study = json.loads(capsys.readouterr().out)
    kind = ConeKind.from_label(label)
    direction = {k: np.array(v) for k, v in study["direction"].items()}
    xi_x, xi_t = np.array(study["xi"]["xi_x"]), study["xi"]["xi_t"]
    h = 2.0 * math.pi / 64
    d = np.sin(xi_x * h) / h
    curl = np.cross(d, direction["E"])
    if not kind.stationary:
        curl = curl + math.sin(xi_t * h) / h * direction["B"]
    expected = {"div_B": abs(direction["B"] @ d), "faraday": np.abs(curl).max()}
    if kind.incompressible:
        expected["div_u"] = abs(direction["u"] @ d)
    reported = study["residuals"][-1]
    assert set(reported) == set(expected)
    for key, val in expected.items():
        assert abs(reported[key] - val) <= 1e-12 * val, key


# ----------------------------------------------------- staircase averages

def _sample_decomposition(seed=40, kind=ConeKind.NONSTATIONARY, p=P11):
    cfg = SampleConfig(seed=seed, count=1, params=p, kind=kind)
    z = next(iter(sample_hull(cfg)))
    return z, decompose(z, p, kind)


def test_staircase_weight_one_returns_first_endpoint():
    cfg = SampleConfig(seed=41, count=1, params=P11)
    z1, z2 = next(iter(sample_lambda_pair(cfg)))
    d = Decomposition(1.0, z1, z2)
    xi = wave_vector_for(z1 - z2, ConeKind.NONSTATIONARY)
    rep = staircase_average(d, xi, n_osc=8, g=GridSpec(16))
    assert rep.average == z1
    assert rep.error == pytest.approx(0.0, abs=1e-15)
    assert rep.fraction == 1.0


def test_staircase_error_halves_with_oscillation_count():
    z, d = _sample_decomposition()
    xi = wave_vector_for(d.z1 - d.z2, ConeKind.NONSTATIONARY)
    grid = GridSpec(48)
    errors = [staircase_average(d, xi, n, grid).error for n in (8, 16, 32)]
    assert all(e > 0 for e in errors)
    assert 0.3 <= errors[1] / errors[0] <= 0.7
    assert 0.3 <= errors[2] / errors[1] <= 0.7


def test_staircase_average_lands_in_hull_but_off_constraint_set():
    for seed in range(42, 52):
        z, d = _sample_decomposition(seed)
        if (d.z1 - d.z2).norm() < 1e-9 or not 0.1 < d.lam < 0.9:
            continue
        xi = wave_vector_for(d.z1 - d.z2, ConeKind.NONSTATIONARY)
        rep = staircase_average(d, xi, n_osc=16, g=GridSpec(32))
        assert in_hull(rep.average, P11)
        assert not in_constraint_set(rep.average, P11)
        assert abs(eval_g1(rep.average)) <= 1e-10


def test_staircase_rejects_mismatched_wave_vector():
    z, d = _sample_decomposition(seed=53)
    bad_xi = WaveVector(d.z1.B - d.z2.B, 0.0)  # parallel to the jump's B part
    if (d.z1 - d.z2).B.norm() > 1e-6:
        with pytest.raises(ValueError):
            staircase_average(d, bad_xi, n_osc=8, g=GridSpec(16))


def test_staircase_checks_the_conditions_of_its_kind():
    # A stationary incompressible split with the nonstationary wave vector of
    # its jump: Gauss and Faraday hold, div u does not.  Validated against
    # the nonstationary conditions (the default) it is accepted; against its
    # own kind's it raises.
    kind = ConeKind.STATIONARY_INCOMPRESSIBLE
    z, d = _sample_decomposition(seed=40, kind=kind)
    xi = wave_vector_for(d.z1 - d.z2, ConeKind.NONSTATIONARY)
    assert xi.xi_t != 0.0
    assert plane_wave_conditions(d.z1 - d.z2, xi, kind)["u_div"] > 0.1
    staircase_average(d, xi, n_osc=8, g=GridSpec(16))
    with pytest.raises(ValueError, match="u_div"):
        staircase_average(d, xi, n_osc=8, g=GridSpec(16), kind=kind)
    own = wave_vector_for(d.z1 - d.z2, kind)
    assert staircase_average(d, own, n_osc=8, g=GridSpec(16), kind=kind).weight == d.lam


def test_staircase_validates_oscillation_count():
    z, d = _sample_decomposition(seed=54)
    xi = wave_vector_for(d.z1 - d.z2, ConeKind.NONSTATIONARY)
    with pytest.raises(ValueError):
        staircase_average(d, xi, n_osc=0, g=GridSpec(16))


def test_staircase_rejects_a_non_integral_oscillation_count():
    z, d = _sample_decomposition(seed=54)
    xi = wave_vector_for(d.z1 - d.z2, ConeKind.NONSTATIONARY)
    with pytest.raises(ValueError, match="got 2.5"):
        staircase_average(d, xi, n_osc=2.5, g=GridSpec(16))
    assert (staircase_average(d, xi, n_osc=2.0, g=GridSpec(16)).fraction
            == staircase_average(d, xi, n_osc=2, g=GridSpec(16)).fraction)


def test_staircase_reports_an_integral_oscillation_count_as_an_int():
    z, d = _sample_decomposition(seed=54)
    xi = wave_vector_for(d.z1 - d.z2, ConeKind.NONSTATIONARY)
    rep = staircase_average(d, xi, n_osc=2.0, g=GridSpec(16))
    assert rep.n_osc == 2 and isinstance(rep.n_osc, int)
    assert json.dumps(rep.to_json_dict()) == json.dumps(
        staircase_average(d, xi, n_osc=2, g=GridSpec(16)).to_json_dict())


def test_staircase_fraction_tracks_weight():
    z, d = _sample_decomposition(seed=55)
    xi = wave_vector_for(d.z1 - d.z2, ConeKind.NONSTATIONARY)
    rep = staircase_average(d, xi, n_osc=64, g=GridSpec(48))
    assert rep.fraction == pytest.approx(d.lam, abs=0.01)


def _sampled_bands(n_osc, g):
    """Band positions of the staircase samples, computed afresh."""
    samples = g.n ** 3
    window = 2.0 * math.pi * g.periods + math.pi / n_osc
    phi = (np.arange(samples, dtype=np.float64) + 0.5) * (window / samples)
    return (phi * (n_osc / (2.0 * math.pi))) % 1.0


@pytest.mark.parametrize("periods", [1, 2, 3])
@pytest.mark.parametrize("n", [4, 16, 48])
def test_staircase_fraction_equals_full_count(n, periods):
    cfg = SampleConfig(seed=58, count=1, params=P11)
    z1, z2 = next(iter(sample_lambda_pair(cfg)))
    xi = wave_vector_for(z1 - z2, ConeKind.NONSTATIONARY)
    g = GridSpec(n, periods=periods)
    sampled = list(np.random.default_rng(59).uniform(0.0, 1.0, 4))
    for n_osc in (1, 8, 32, 64):
        frac = _sampled_bands(n_osc, g)
        inner = frac[(frac > 0.0) & (frac < 1.0)]
        # Weights equal to a sample's band position: the comparison is strict.
        ties = [float(v) for v in np.sort(inner)[[0, inner.size // 2, -1]]]
        assert np.count_nonzero(frac <= ties[1]) > np.count_nonzero(frac < ties[1])
        for lam in [0.0, 1.0] + sampled + ties:
            expected = float(np.count_nonzero(frac < lam)) / frac.size
            rep = staircase_average(Decomposition(lam, z1, z2), xi, n_osc, g)
            assert rep.fraction == expected, (n_osc, lam)
            assert rep.samples == n ** 3


def test_band_fraction_cache_is_read_only_and_bounded():
    fracs = planewave._band_fractions(8, 16, 1)
    assert not fracs.flags.writeable
    with pytest.raises(ValueError):
        fracs[0] = 0.5
    assert np.all(np.diff(fracs) >= 0.0)
    assert planewave._band_fractions.cache_info().maxsize == 4


def test_report_json_shapes():
    rep = grid_residual(CANONICAL_DIR, CANONICAL_XI, GridSpec(8),
                        ConeKind.NONSTATIONARY)
    d = rep.to_json_dict()
    assert {"n", "h", "residuals", "xi", "kind"} == set(d)
    z, dec = _sample_decomposition(seed=56)
    xi = wave_vector_for(dec.z1 - dec.z2, ConeKind.NONSTATIONARY)
    sd = staircase_average(dec, xi, 8, GridSpec(16)).to_json_dict()
    assert {"average", "error", "fraction", "weight", "n_osc", "samples"} == set(sd)


def test_staircase_error_matches_window_formula():
    # Documented law: error = min(lam, 1-lam) / (2 * periods * n_osc + 1)
    # times |z1 - z2|, up to grid sampling noise.
    z, d = _sample_decomposition(seed=57)
    xi = wave_vector_for(d.z1 - d.z2, ConeKind.NONSTATIONARY)
    dz_norm = (d.z1 - d.z2).norm()
    for periods, n_osc in ((1, 8), (1, 32), (2, 8), (3, 16)):
        rep = staircase_average(d, xi, n_osc, GridSpec(48, periods=periods))
        predicted = min(d.lam, 1.0 - d.lam) / (2 * periods * n_osc + 1) * dz_norm
        assert rep.error == pytest.approx(predicted, rel=0.05)


def _bits(z: Triple) -> list:
    return [x.hex() for v in (z.B, z.u, z.E) for x in v]


@pytest.mark.parametrize("g", [GridSpec(16), GridSpec(48, periods=2)], ids=["16", "48x2"])
def test_staircase_matches_component_reference(g):
    # The average, fraction and closed-form error |f - lambda| |z1 - z2| are
    # the component reference's bit for bit; the error equals the norm of
    # average - mixture up to rounding.
    decomps = [_sample_decomposition(seed)[1] for seed in range(60, 68)]
    for n_osc in (1, 8, 32):
        for d0 in decomps:
            for lam in (d0.lam, 0.0, 1.0):
                d = Decomposition(lam, d0.z1, d0.z2)
                xi = wave_vector_for(d.z1 - d.z2, ConeKind.NONSTATIONARY)
                rep = staircase_average(d, xi, n_osc, g)
                average, fraction, error, distance = reference_staircase_average(d, xi, n_osc, g)
                assert _bits(rep.average) == [x.hex() for x in average], (n_osc, lam)
                assert rep.fraction.hex() == fraction.hex(), (n_osc, lam)
                assert rep.error.hex() == error.hex(), (n_osc, lam)
                assert abs(rep.error - distance) <= 1e-15 * (d.z1 - d.z2).norm(), (n_osc, lam)


# sha256 of the JSON of seeded plane-wave outputs, pinned with numpy 2.4.6 and
# independent of the CPU: staircase reports at n_osc 8, 16, 32 on a 48-point grid for the
# splits of 100 nonstationary hull points, and the wave vectors of the jumps of
# 100 hull points per cone kind.  Every float is written as its shortest
# round-trip repr, so a change of one bit in an output moves a digest.
STAIRCASE_DIGEST = "85f77c83759b9d5a51547f51f1eb85854fe5cf21f9d87c745d490a75f6bb3763"
WAVE_VECTOR_DIGEST = "f8cad659de2996494ee290b745a4293aa61d3a48d22455cc13b6ac7e11afc488"


def _digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


def test_staircase_reports_golden_digest():
    g, kind = GridSpec(48), ConeKind.NONSTATIONARY
    reports = []
    for z in sample_hull(SampleConfig(seed=26, count=100, params=P11)):
        d = decompose(z, P11)
        xi = wave_vector_for(d.z1 - d.z2, kind)
        reports += [staircase_average(d, xi, n, g).to_json_dict() for n in (8, 16, 32)]
    assert _digest(reports) == STAIRCASE_DIGEST


def test_wave_vectors_golden_digest():
    waves = []
    for kind in ALL_KINDS:
        for z in sample_hull(SampleConfig(seed=26, count=100, params=P11, kind=kind)):
            d = decompose(z, P11, kind)
            waves.append(wave_vector_for(d.z1 - d.z2, kind).to_json_dict())
    assert _digest(waves) == WAVE_VECTOR_DIGEST
