"""The block campaign engine against the per-point path.

The samplers, the membership kernel, the interior decomposition and the
verification residuals run on blocks of (B, u, E) component columns in the
per-point arithmetic, so every comparison here is exact: bit for bit, not
within a tolerance.
"""

from collections import Counter

import numpy as np
import pytest

from dynamohull import (
    ConeKind,
    HullCheckReport,
    HullParams,
    NotInHullError,
    SampleConfig,
    Tolerances,
    Triple,
    Vec3,
    decompose,
    in_hull,
    sample_K,
    sample_first_laminate,
    sample_hull,
    sample_lambda_pair,
    two_sided_hull_check,
    unit_perpendicular_to_all,
    verify_decomposition,
)
from dynamohull import oracle
from dynamohull.core import DEFAULT_TOLERANCES, _separation_flags
from dynamohull.laminate import _residuals
from dynamohull.oracle import _COLUMNS, _decompose_block
from _helpers import (
    ALL_KINDS,
    FAILING_SPECIAL_POINTS,
    MIXING_GAP_POINT,
    excess_bound,
    reference_check_decompositions,
    reference_two_sided_hull_check,
    scaled_point,
    special_points,
)

KINDS = (ConeKind.NONSTATIONARY, ConeKind.STATIONARY_INCOMPRESSIBLE)
RADII = (1e-6, 1e-3, 1e-2, 1.0, 1e2, 1e3, 1e6)
PRODUCTION_BLOCK = oracle.BLOCK


@pytest.fixture
def blocks_of_1024(monkeypatch):
    """Blocks of 1024 rows, whose edges the counts of the tests that use this
    fixture cross, whatever the production block size."""
    monkeypatch.setattr(oracle, "BLOCK", 1024)


def block(triples):
    """The (B, u, E) component columns of a list of triples."""
    rows = np.array([[*z.B, *z.u, *z.E] for z in triples], dtype=np.float64).reshape(-1, 9)
    return tuple(tuple(rows[:, 3 * k + i].copy() for i in range(3)) for k in range(3))


def row(z, i):
    """Row i of a (B, u, E) state of component columns, as 9 floats."""
    return [float(x[i]) for v in z for x in v]


def set_row(z, i, t: Triple):
    """Write the triple t into row i of a (B, u, E) state of component columns."""
    for v, x in zip(z, (t.B, t.u, t.E)):
        v[0][i], v[1][i], v[2][i] = x


def bits(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64).view(np.uint64)


@pytest.mark.usefixtures("blocks_of_1024")
@pytest.mark.parametrize("count", [0, 1, 2500])
@pytest.mark.parametrize("radii", [(1.0, 1.0), (1e-3, 1e3), (1e-6, 1e6)])
@pytest.mark.parametrize("kind", KINDS)
def test_block_driver_matches_reference(kind, radii, count):
    cfg = SampleConfig(seed=21, count=count, params=HullParams(*radii), kind=kind)
    assert two_sided_hull_check(cfg).to_json() == reference_two_sided_hull_check(cfg).to_json()


@pytest.mark.usefixtures("blocks_of_1024")
@pytest.mark.parametrize("count, tol", [
    (10_000, Tolerances(eps_mem=4e-16)),
    # membership failures, then verification failures (mixing included)
    (2500, Tolerances(eps_mem=1e-16)),
])
@pytest.mark.parametrize("kind", KINDS)
def test_block_driver_matches_reference_on_failures(kind, count, tol):
    # Slacks at or below rounding make points fail, which pins the order of
    # the recorded failures, their cap and the counts.
    cfg = SampleConfig(seed=22, count=count, params=HullParams(0.5, 2.0), kind=kind)
    block_report = two_sided_hull_check(cfg, tol)
    assert block_report.to_json() == reference_two_sided_hull_check(cfg, tol).to_json()
    assert len(block_report.failures) == HullCheckReport.MAX_RECORDED_FAILURES


@pytest.mark.usefixtures("blocks_of_1024")
@pytest.mark.parametrize("kind", KINDS)
def test_decomposition_half_matches_reference_on_failures(kind):
    # At eps 1e-17 decompose raises (g1 at rounding level) between
    # verification failures: both records, in point order, in one capped
    # list, with the counts and maxima of the per-point reference, across
    # block edges.
    p, tol = HullParams(0.5, 2.0), Tolerances(eps_mem=1e-17)
    cfg = SampleConfig(seed=22, count=2500, params=p, kind=kind)
    report, expected = (HullCheckReport(seed=22, kind=kind.label, r=p.r, s=p.s)
                        for _ in range(2))
    for z in oracle._hull_blocks(oracle._generator(cfg, oracle.HULL_KEY), cfg):
        oracle._check_decompositions(report, z, p, kind, tol)
    reference_check_decompositions(expected, sample_hull(cfg), p, kind, tol)
    assert report.to_json() == expected.to_json()
    assert len(report.failures) == HullCheckReport.MAX_RECORDED_FAILURES
    assert {f["reason"].split(":")[0] for f in report.failures} == {
        "decomposition raised", "verification failed"}


@pytest.mark.parametrize("kind", KINDS)
def test_separating_mask_matches_kernel(kind):
    eps = DEFAULT_TOLERANCES.eps_mem
    for ri, r in enumerate(RADII):
        for si, s in enumerate(RADII):
            p = HullParams(r, s)
            rng = np.random.default_rng([23, ri, si])
            points = [scaled_point(rng, kind, f, r, s) for f in
                      (*rng.uniform(0.0, 1.0, 8), 1.0, *np.exp(rng.uniform(0.0, 4.0, 8)))]
            points += special_points(p).values()
            g1, g3, g2, _, _ = _separation_flags(*block(points), p, kind, eps, _COLUMNS)
            mask = g1 | g3 | g2
            expected = [not in_hull(z, p, kind) for z in points]
            assert mask.tolist() == expected, (r, s)
    assert any(expected) and not all(expected)


def hull_points(kind, p, count=1500, seed=24):
    points = list(sample_hull(SampleConfig(seed=seed, count=count, params=p, kind=kind)))
    return points + list(special_points(p).values())


@pytest.mark.parametrize("radii", [(1.0, 1.0), (1e-3, 1e3), (1e6, 1e-6)])
@pytest.mark.parametrize("kind", KINDS)
def test_block_decomposition_matches_decompose(kind, radii):
    # The block's mask is exactly the rows decompose raises on, those outside
    # the set.  Every other row, exact Ohm, B = 0 and the amplitude faces
    # included, has decompose's weight and endpoints and
    # verify_decomposition's residuals, bit for bit.
    p = HullParams(*radii)
    points = hull_points(kind, p)
    failing = [special_points(p)[name] for name in FAILING_SPECIAL_POINTS]
    cols = block(points)
    lam, z1, z2, raises = _decompose_block(*cols, p, kind, DEFAULT_TOLERANCES)
    with np.errstate(all="ignore"):  # the rows outside hold no endpoints
        res = _residuals(lam, z1, z2, cols, p, kind, _COLUMNS)
    raised = []
    for i, z in enumerate(points):
        try:
            d = decompose(z, p, kind)
        except NotInHullError:
            raised.append(i)
            continue
        assert bits(lam[i]) == bits(d.lam)
        assert (bits(row(z1, i)) == bits([*d.z1.B, *d.z1.u, *d.z1.E])).all()
        assert (bits(row(z2, i)) == bits([*d.z2.B, *d.z2.u, *d.z2.E])).all()
        ver = verify_decomposition(d, z, p, kind)
        assert ver.passed or z in failing
        assert list(res) == list(ver.residuals)
        assert (bits([res[name][i] for name in res]) == bits(list(ver.residuals.values()))).all()
    assert np.flatnonzero(raises).tolist() == raised
    assert len(points) - len(raised) >= 1400


@pytest.mark.parametrize("kind", KINDS)
def test_fallback_rows_are_the_rare_branches(kind):
    # The rows the block leaves to decompose are exactly those outside the
    # set, and decompose raises on them with a witness.  It splits every
    # other special point, and only the points of the slack band fail
    # verification, each by reconstruction.
    p = HullParams(2.0, 0.5)
    tol = DEFAULT_TOLERANCES
    special = special_points(p)
    interior = list(sample_hull(SampleConfig(seed=25, count=300, params=p, kind=kind)))
    points = interior + list(special.values())
    _, _, _, raises = _decompose_block(*block(points), p, kind, tol)
    outcome = {}
    for name, z in special.items():
        try:
            d = decompose(z, p, kind, tol)
        except NotInHullError as exc:
            assert exc.witness is not None and exc.witness.separates
            outcome[name] = "raised"
        else:
            outcome[name] = verify_decomposition(d, z, p, kind, tol).failures
    assert outcome == {name: "raised" if name == "outside"
                       else ("reconstruction",) if name in FAILING_SPECIAL_POINTS else ()
                       for name in special}
    assert raises.tolist() == [False] * len(interior) + [name == "outside" for name in special]


@pytest.mark.parametrize("radii", [(1.0, 1.0), (2.0, 0.5), (1e-3, 1e3)])
@pytest.mark.parametrize("kind", KINDS)
def test_fallback_rows_are_written_back(kind, radii):
    # The special points sit among interior points of one block.  The block
    # splits every row in the set itself and writes nothing back from
    # decompose, which runs only on the rows outside, so the report,
    # residual maxima included, is the per-point reference's.
    p = HullParams(*radii)
    tol = DEFAULT_TOLERANCES
    interior = list(sample_hull(SampleConfig(seed=30, count=300, params=p, kind=kind)))
    special = list(special_points(p).values())
    points = interior[:100] + special + interior[100:] + special
    report, expected = (HullCheckReport(seed=30, kind=kind.label, r=p.r, s=p.s)
                        for _ in range(2))
    oracle._check_decompositions(report, block(points), p, kind, tol)
    reference_check_decompositions(expected, points, p, kind, tol)
    assert report.to_json() == expected.to_json()
    # Only the point outside and the two of the slack band fail.
    assert report.failed["decompose"] == 2 * 3


def test_a_verification_failure_is_one_record():
    kind = ConeKind.STATIONARY_INCOMPRESSIBLE
    report = HullCheckReport(seed=0, kind=kind.label, r=1.0, s=1.0)
    oracle._check_decompositions(report, block([MIXING_GAP_POINT]), HullParams(1.0, 1.0), kind,
                                 DEFAULT_TOLERANCES)
    assert report.failed["decompose"] == 1
    assert [f["reason"] for f in report.failures] == ["verification failed: reconstruction"]


def test_a_mixture_off_u_dot_E_is_one_membership_failure(monkeypatch):
    # Membership's g3 is the campaign's one u . E test: a mixture pushed off
    # u . E fails once, and its residual is still folded into the maximum.
    kind = ConeKind.STATIONARY_INCOMPRESSIBLE
    cfg = SampleConfig(seed=31, count=10, params=HullParams(1.0, 1.0), kind=kind)
    blocks = list(oracle._mixture_blocks(oracle._generator(cfg), cfg))
    u, E = blocks[0][1], blocks[0][2]
    u_len = np.sqrt(sum(x[0] * x[0] for x in u))
    for x, y in zip(E, u):
        x[0] += 5e-7 * y[0] / u_len
    monkeypatch.setattr(oracle, "_mixture_blocks", lambda gen, cfg: iter(blocks))
    report = two_sided_hull_check(cfg)
    assert report.failed["laminate"] == 1
    assert [(f["side"], f["reason"]) for f in report.failures] == [
        ("laminate", "combination fails closed-form membership")]
    assert report.max_u_orthogonality > 1e-7


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_merge_is_the_block_fold(kind, monkeypatch):
    # The mixtures of a campaign cut at block edges into 3 runs, each with
    # more than MAX_RECORDED_FAILURES failures, merged in order and then with
    # the hull run: the report of one run over every mixture merged with the
    # same hull run, byte for byte, and the per-point reference's.  No fork.
    monkeypatch.setattr(oracle, "BLOCK", 7)
    tol = Tolerances(eps_mem=1e-17)
    cfg = SampleConfig(seed=5, count=300, params=HullParams(1.0, 1.0), kind=kind)
    hull = oracle._share(cfg, tol, "decompose", (0, cfg.count // 10))
    report, *rest = (oracle._share(cfg, tol, "laminate", run)
                     for run in ((0, 14 * 7), (14 * 7, 28 * 7), (28 * 7, 300)))
    for part in (report, *rest):
        assert part.failed["laminate"] > HullCheckReport.MAX_RECORDED_FAILURES
    for part in (*rest, hull):
        report.merge(part)
    serial = oracle._share(cfg, tol, "laminate", (0, cfg.count))
    serial.merge(hull)
    assert report.to_json() == serial.to_json()
    assert report.to_json() == reference_two_sided_hull_check(cfg, tol).to_json()


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_a_block_records_its_failures_at_once(kind, monkeypatch):
    # A campaign of blocks of 7 rows at eps 1e-17, where most points of both
    # halves fail: each block records its failing rows with one call, and
    # each half builds Triples only for the records its report keeps, beside
    # the one Triple decompose checks per row the block kernel finds outside
    # the set.  In process, so the counts are this process's.
    monkeypatch.setattr(oracle, "BLOCK", 7)
    tol = Tolerances(eps_mem=1e-17)
    cfg = SampleConfig(seed=5, count=300, params=HullParams(1.0, 1.0), kind=kind)
    expected = reference_two_sided_hull_check(cfg, tol).to_json()

    calls = Counter()  # (half, call) -> count
    half = {}

    def counting(call, fn):
        def wrapper(*args):
            calls[half["now"], call] += 1
            return fn(*args)
        return wrapper

    def in_half(name, check):
        def wrapper(*args):
            half["now"] = name
            return check(*args)
        return wrapper

    monkeypatch.setattr(oracle, "_check_mixtures", in_half("laminate", oracle._check_mixtures))
    monkeypatch.setattr(oracle, "_check_decompositions",
                        in_half("decompose", oracle._check_decompositions))
    monkeypatch.setattr(HullCheckReport, "record", counting("record", HullCheckReport.record))
    monkeypatch.setattr(oracle, "_triple", counting("Triple", oracle._triple))
    monkeypatch.setattr(oracle, "decompose", counting("decompose", oracle.decompose))
    monkeypatch.setattr(oracle, "_shares", lambda count: ([(0, count)], []))
    report = two_sided_hull_check(cfg, tol)

    assert report.to_json() == expected
    assert calls["decompose", "decompose"] > 0
    blocks = {"laminate": -(-cfg.count // 7), "decompose": -(-(cfg.count // 10) // 7)}
    for name, n in blocks.items():
        assert report.failed[name] > HullCheckReport.MAX_RECORDED_FAILURES
        assert calls[name, "record"] <= n
        assert (calls[name, "Triple"] - calls[name, "decompose"]
                <= HullCheckReport.MAX_RECORDED_FAILURES)


class ListStream:
    """A stream of given draws, read through Generator.random."""

    def __init__(self, draws):
        self.draws = np.asarray(draws, dtype=np.float64)
        self.i = 0

    def random(self, n):
        assert self.i + n <= len(self.draws)
        self.i += n
        return self.draws[self.i - n:self.i]


# Each public sampler, the draws it reads per item and its stream's spawn key.
STRIDES = {"pairs": (sample_lambda_pair, 8, 0), "mixtures": (sample_first_laminate, 8, 0),
           "hull": (sample_hull, 12, oracle.HULL_KEY)}


@pytest.mark.usefixtures("blocks_of_1024")
@pytest.mark.parametrize("k", [0, 700, 1024, 1500])
@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("sampler", sorted(STRIDES))
def test_item_reads_only_its_own_draws(sampler, kind, k, monkeypatch):
    # Item i reads draws [stride i, stride (i + 1)) and no others: fresh
    # draws in item k's window change item k alone, at the start, inside and
    # at the edge of a block, and the sampler reads exactly stride * count.
    count = 1600
    sample, stride, key = STRIDES[sampler]
    cfg = SampleConfig(seed=26, count=count, params=HullParams(0.5, 2.0), kind=kind)
    expected = list(sample(cfg))
    draws = oracle._generator(cfg, key).random(stride * count)
    draws[stride * k:stride * (k + 1)] = np.random.default_rng(k).random(stride)
    fake = ListStream(draws)
    monkeypatch.setattr(oracle, "_generator", lambda cfg, key=0: fake)
    got = list(sample(cfg))
    assert fake.i == stride * count
    assert got[:k] == expected[:k] and got[k + 1:] == expected[k + 1:]
    assert got[k] != expected[k]


@pytest.mark.parametrize("stride, key", [(4, 0), (8, 0), (12, oracle.HULL_KEY)])
def test_an_advanced_stream_reads_its_slice_of_the_draws(stride, key):
    # A campaign share that starts at block b advances its own copy of the
    # stream by stride * BLOCK * b outputs, one per draw: its blocks then
    # read draws [stride * BLOCK * b, ...) of a single full draw, so item i
    # still reads draws [stride i, stride (i + 1)).
    cfg = SampleConfig(seed=27, count=0, params=HullParams(1.0, 1.0))
    n = stride * PRODUCTION_BLOCK
    full = oracle._generator(cfg, key).random(4 * n)
    for b in range(4):
        gen = oracle._generator(cfg, key)
        gen.bit_generator.advance(n * b)
        assert (bits(gen.random(n)) == bits(full[n * b:n * (b + 1)])).all(), b


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_laminates_mix_the_pair_samplers_pairs(kind):
    # One pair stream: item i of sample_first_laminate is lam z1 + (1 - lam) z2,
    # bit for bit, with (z1, z2) item i of sample_lambda_pair and lam draw
    # 8 i + 7 of the stream.  The count spans two production blocks.
    count = PRODUCTION_BLOCK + 1928
    cfg = SampleConfig(seed=31, count=count, params=HullParams(1e-3, 1e3), kind=kind)
    mixtures = np.array([[*z.B, *z.u, *z.E] for z in sample_first_laminate(cfg)])
    pairs = np.array([[*z1.B, *z1.u, *z1.E, *z2.B, *z2.u, *z2.E]
                      for z1, z2 in sample_lambda_pair(cfg)])
    lam = oracle._generator(cfg).random(8 * count)[7::8, None]
    assert mixtures.shape == (count, 9) and pairs.shape == (count, 18)
    assert (bits(mixtures) == bits(lam * pairs[:, :9] + (1.0 - lam) * pairs[:, 9:])).all()


@pytest.mark.parametrize("radii", [(1.0, 1.0), (1e-3, 1e3)])
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_outputs_do_not_depend_on_the_block_size(kind, radii, monkeypatch):
    # Item i reads draws [stride i, stride (i + 1)) however the blocks fall,
    # every kernel is elementwise and every report fold is a maximum, a count
    # or a failure list in point order: the campaign report and the bits of
    # every block generator's columns are the same at every block size.  The
    # public samplers build their Triples from those columns, compared at
    # one size besides the production one.  The count takes two blocks of
    # the production size.
    count = PRODUCTION_BLOCK + 500
    cfg = SampleConfig(seed=30, count=count, params=HullParams(*radii), kind=kind)

    def flat(x):
        """The columns of a block, nested tuples of columns, in order."""
        return [x] if isinstance(x, np.ndarray) else [c for y in x for c in flat(y)]

    def columns():
        """The campaign report and each block generator's rows, stacked over its blocks."""
        generators = ((oracle._K_blocks, 0), (oracle._pair_blocks, 0),
                      (oracle._mixture_blocks, 0), (oracle._hull_blocks, oracle.HULL_KEY))
        return two_sided_hull_check(cfg).to_json(), [
            bits(np.concatenate([np.column_stack(flat(b))
                                 for b in blocks(oracle._generator(cfg, key), cfg)]))
            for blocks, key in generators]

    def floats(item):
        """The floats of a Triple, or of a pair of Triples, in (B, u, E) order."""
        return [x for z in ((item,) if isinstance(item, Triple) else item)
                for v in (z.B, z.u, z.E) for x in v]

    def triples():
        return [bits([floats(item) for item in sample(cfg)])
                for sample in (sample_K, sample_lambda_pair, sample_first_laminate, sample_hull)]

    def same(got, want, size):
        for g, w in zip(got, want, strict=True):
            assert g.shape == w.shape and (g == w).all(), size

    assert oracle.BLOCK == PRODUCTION_BLOCK
    expected_json, expected_columns = columns()
    expected_triples = triples()
    assert [len(x) for x in expected_triples] == [count] * 4
    for size in (7, 1000, count + 1):
        monkeypatch.setattr(oracle, "BLOCK", size)
        got_json, got_columns = columns()
        assert got_json == expected_json, size
        same(got_columns, expected_columns, size)
        if size == 1000:
            same(triples(), expected_triples, size)


def test_parallel_B_and_u_take_the_perpendicular_fallback(monkeypatch):
    # Hull point k of the stationary incompressible kind with u drawn on
    # B's direction (u's sphere draws 8 and 9 are B's, 3 and 4, of the
    # point's 12): B x u is rounding noise, and the excess direction is
    # still unit_perpendicular_to_all((B, u)), the float view of the column
    # kernel, signed by the coin.
    count, k = 1500, 700
    kind = ConeKind.STATIONARY_INCOMPRESSIBLE
    p = HullParams(0.5, 2.0)
    cfg = SampleConfig(seed=28, count=count, params=p, kind=kind)
    draws = oracle._generator(cfg, oracle.HULL_KEY).random(12 * count)
    draws[12 * k + 8:12 * k + 10] = draws[12 * k + 3:12 * k + 5]
    monkeypatch.setattr(oracle, "_generator", lambda cfg, key: ListStream(draws))
    points = list(sample_hull(cfg))
    z = points[k]
    assert z.B.cross(z.u).norm() <= 1e-12 * z.B.norm() * z.u.norm()
    e = unit_perpendicular_to_all((z.B, z.u))
    e = e if draws[12 * k + 10] < 0.5 else -e
    assert z.E == z.B.cross(z.u) + e * (draws[12 * k + 11] * excess_bound(z.B, z.u, p))
    monkeypatch.undo()
    assert points[:k] + points[k + 1:] == [
        q for i, q in enumerate(sample_hull(cfg)) if i != k]
