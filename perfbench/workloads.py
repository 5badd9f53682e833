"""The four workloads: inputs, one round of program calls, and the checks.

Each workload builds its inputs once from the seed, then repeats the same
round of program calls. ``round`` makes only program calls and returns
their outputs with per-phase wall times; ``check`` compares the outputs
with the independent checker and returns (attempted, failed, problems).
Inputs come in two sorts. Most follow --seed; an output on them that the
checker rejects is a problem and makes the run incorrect. A few are fixed
probes that do not follow --seed (scales' outside points and sampling
runs, planewave's residual directions); an output on them that the checker
rejects counts as a failed operation, so a known fault shows as the same
failed share on every seed instead of hiding or flickering.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time

import numpy as np

import checker

# Bound on every per-check maximum a campaign report may carry.
REPORT_MAX_RESIDUAL = 1e-9


def _row(z) -> list[float]:
    return [*z.B, *z.u, *z.E]


def _run_cli(cli, argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


class Campaign:
    """`dynamohull verify-hull` at r = s = 1 entered through cli.main; one
    round is one campaign of 100k mixtures and 10k decompositions."""

    MIXTURES = 100_000
    SUBSAMPLE_MIXTURES = 2_000
    SUBSAMPLE_DECOMPOSITIONS = 200

    def __init__(self, dh, kind_label: str, seed: int):
        self.dh = dh
        self.kind = dh.ConeKind.from_label(kind_label)
        self.seed = seed
        self.argv = ["verify-hull", "--r", "1", "--s", "1", "--kind", kind_label,
                     "--count", str(self.MIXTURES), "--seed", str(seed), "--deterministic"]
        self.first_report = None
        self.pair_attempts_per_mixture = 0.0
        self.fault_counts = {}

    def round(self):
        t = time.perf_counter()
        out = _run_cli(self.dh.cli, self.argv)
        return out, {"campaign_s": time.perf_counter() - t}

    def check(self, out) -> tuple[int, int, list[str]]:
        rc, text = out
        problems = []
        if rc != 0:
            problems.append(f"verify-hull exited {rc}")
        try:
            rep = json.loads(text)
        except json.JSONDecodeError as exc:
            return 1, 0, problems + [f"report is not JSON: {exc}"]
        expect = {"seed": self.seed, "kind": self.kind.label, "r": 1.0, "s": 1.0,
                  "failure_count": 0,
                  "checked_detail": {"laminate": self.MIXTURES,
                                     "decompose": self.MIXTURES // 10}}
        for key, want in expect.items():
            if rep.get(key) != want:
                problems.append(f"report {key} = {rep.get(key)!r}, expected {want!r}")
        maxima = {"max_residual": rep.get("max_residual"),
                  "max_verify_residual": rep.get("max_verify_residual"),
                  **{f"max_residual_by_check.{k}": v
                     for k, v in rep.get("max_residual_by_check", {}).items()}}
        if self.kind.restricts_u:
            for key in ("max_u_orthogonality", "max_mixing_orthogonality"):
                maxima[key] = rep.get(key)
        for key, val in maxima.items():
            if not (isinstance(val, float) and val <= REPORT_MAX_RESIDUAL):
                problems.append(f"report {key} = {val!r} exceeds {REPORT_MAX_RESIDUAL}")
        if self.first_report is None:
            self.first_report = text
        elif text != self.first_report:
            problems.append("--deterministic report differs between rounds")
        if rep.get("pair_attempts"):
            self.pair_attempts_per_mixture = rep["pair_attempts"] / self.MIXTURES
        return 1, 0, problems

    def check_once(self) -> list[str]:
        """Regenerate the campaign's first mixtures and hull points from the
        same seeded streams and pass them through the independent checker."""
        dh = self.dh
        p = dh.HullParams(1.0, 1.0)
        problems = []
        cfg = dh.SampleConfig(seed=self.seed, count=self.SUBSAMPLE_MIXTURES, params=p,
                              kind=self.kind)
        mix = np.array([_row(z) for z in dh.oracle.sample_first_laminate(cfg)])
        worst = checker.relaxed_set_violation(mix, 1.0, 1.0, self.kind.restricts_u).max()
        if not worst <= checker.TOL:
            problems.append(f"mixture outside the relaxed set by {worst}")
        cfg = dh.SampleConfig(seed=self.seed, count=self.SUBSAMPLE_DECOMPOSITIONS,
                              params=p, kind=self.kind)
        targets, lams, z1s, z2s = [], [], [], []
        for z in dh.oracle.sample_hull(cfg):
            d = dh.laminate.decompose(z, p, self.kind)
            targets.append(_row(z))
            lams.append(d.lam)
            z1s.append(_row(d.z1))
            z2s.append(_row(d.z2))
        worst = checker.decomposition_violation(lams, z1s, z2s, targets, 1.0, 1.0,
                                                self.kind.restricts_u).max()
        if not worst <= checker.TOL:
            problems.append(f"decomposition witness fails the checker by {worst}")
        return problems

    def extra(self) -> dict:
        return {"oracle.pair_attempts_per_mixture": self.pair_attempts_per_mixture}


# ------------------------------------------------------------------- scales

RADII = (1e-6, 1e-3, 1e-2, 1.0, 1e2, 1e3, 1e6)
# Fixed seed of the outside points and of the sampling runs. Whether the
# program misjudges an outside point (Fault A), aborts a sampling run
# (Fault B) or returns pairs off the cone (Fault D) depends on the exact
# input, so these inputs must not follow --seed: the failed share of a
# round then repeats exactly on every seed.
PROBE_SEED = 20230116


def _unit(rng, n):
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1)[:, None]


def build_points(rng, n: int, restricts_u: bool, fractions) -> np.ndarray:
    """n normalised triples (b, v, e) with |b|, |v| <= 0.999 (uniform in
    volume), b.e = 0 (and v.e = 0 when restricts_u), and excess
    |e - b x v| equal to the given fraction of sqrt((1-|b|^2)(1-|v|^2))."""
    b = _unit(rng, n) * (0.999 * rng.random(n) ** (1.0 / 3.0))[:, None]
    v = _unit(rng, n) * (0.999 * rng.random(n) ** (1.0 / 3.0))[:, None]
    if restricts_u:
        d = np.cross(b, v)
        d *= (np.where(rng.random(n) < 0.5, 1.0, -1.0) / np.linalg.norm(d, axis=1))[:, None]
    else:
        w = _unit(rng, n)
        bh = b / np.linalg.norm(b, axis=1)[:, None]
        d = w - bh * np.einsum("ij,ij->i", w, bh)[:, None]
        d /= np.linalg.norm(d, axis=1)[:, None]
    bound = np.sqrt((1.0 - np.einsum("ij,ij->i", b, b)) * (1.0 - np.einsum("ij,ij->i", v, v)))
    e = np.cross(b, v) + d * (fractions * bound)[:, None]
    return np.hstack([b, v, e])


class Scales:
    """Membership verdicts and decompositions at radii 1e-6..1e6 for both
    cone kinds, plus one short stationary-incompressible pair sampling run
    per radius pair."""

    INSIDE = 12           # per radius pair and kind, from --seed
    OUTSIDE = 12          # per radius pair and kind, from PROBE_SEED
    PAIRS_PER_RUN = 20

    def __init__(self, dh, seed: int):
        self.dh = dh
        self.configs = []
        kinds = (dh.ConeKind.NONSTATIONARY, dh.ConeKind.STATIONARY_INCOMPRESSIBLE)
        for ki, kind in enumerate(kinds):
            for ri, r in enumerate(RADII):
                for si, s in enumerate(RADII):
                    rng = np.random.default_rng([seed, ki, ri, si])
                    inside = build_points(rng, self.INSIDE, kind.restricts_u,
                                          rng.uniform(0.0, 0.99, self.INSIDE))
                    probe = np.random.default_rng([PROBE_SEED, ki, ri, si])
                    outside = build_points(probe, self.OUTSIDE, kind.restricts_u,
                                           np.exp(probe.uniform(math.log(1.01), math.log(100.0),
                                                                self.OUTSIDE)))
                    self.configs.append((dh.HullParams(r, s), kind,
                                         self._triples(inside, r, s),
                                         self._triples(outside, r, s)))
        si_kind = dh.ConeKind.STATIONARY_INCOMPRESSIBLE
        self.sampling = [dh.SampleConfig(seed=PROBE_SEED, count=self.PAIRS_PER_RUN,
                                         params=dh.HullParams(r, s), kind=si_kind)
                         for r in RADII for s in RADII]
        self.fault_counts = {}

    def _triples(self, rows, r, s):
        T, V = self.dh.Triple, self.dh.Vec3
        return [T(V(*(x[0:3] * r)), V(*(x[3:6] * s)), V(*(x[6:9] * (r * s)))) for x in rows]

    def round(self):
        dh = self.dh
        core, laminate, oracle = dh.core, dh.laminate, dh.oracle
        t0 = time.perf_counter()
        verdicts = [[(core.in_hull(z, p, kind), core.separation_witness(z, p, kind))
                     for z in inside + outside]
                    for p, kind, inside, outside in self.configs]
        t1 = time.perf_counter()
        decomps = []
        for p, kind, inside, _ in self.configs:
            for z in inside:
                try:
                    d = laminate.decompose(z, p, kind)
                    decomps.append((d, laminate.verify_decomposition(d, z, p, kind)))
                except laminate.DecompositionError as exc:
                    decomps.append((exc, None))
        t2 = time.perf_counter()
        runs = []
        for cfg in self.sampling:
            try:
                runs.append(list(oracle.sample_lambda_pair(cfg)))
            except RuntimeError as exc:
                runs.append(exc)
        t3 = time.perf_counter()
        n_verdicts = 2 * sum(len(row) for row in verdicts)
        return (verdicts, decomps, runs), {
            "verdicts_per_s": n_verdicts / (t1 - t0),
            "decompositions_per_s": len(decomps) / (t2 - t1),
            "sampling_runs_s": t3 - t2,
        }

    def check(self, out) -> tuple[int, int, list[str]]:
        verdicts, decomps, runs = out
        problems = []
        faults = {"A.in_hull": 0, "A.separation_witness": 0, "B.sampler_raises": 0,
                  "D.sampler_off_cone": 0}
        attempted = 0
        dec_iter = iter(decomps)
        for (p, kind, inside, outside), row in zip(self.configs, verdicts):
            attempted += 2 * len(row)
            for inside_hull, witness in row[:len(inside)]:
                if not inside_hull or witness.separates:
                    problems.append(f"inside point misjudged at r={p.r}, s={p.s}, {kind.label}")
            for inside_hull, witness in row[len(inside):]:
                faults["A.in_hull"] += inside_hull
                faults["A.separation_witness"] += not witness.separates
            lams, z1s, z2s, targets = [], [], [], []
            for z in inside:
                d, ver = next(dec_iter)
                attempted += 1
                if ver is None:
                    problems.append(f"inside point not decomposed at r={p.r}, s={p.s}: {d}")
                    continue
                if not ver.passed:
                    problems.append(f"verify_decomposition failed at r={p.r}, s={p.s}: "
                                    f"{ver.failures}")
                lams.append(d.lam)
                z1s.append(_row(d.z1))
                z2s.append(_row(d.z2))
                targets.append(_row(z))
            if lams:
                worst = checker.decomposition_violation(lams, z1s, z2s, targets, p.r, p.s,
                                                        kind.restricts_u).max()
                if not worst <= checker.TOL:
                    problems.append(f"decomposition fails the checker by {worst} "
                                    f"at r={p.r}, s={p.s}, {kind.label}")
        for cfg, run in zip(self.sampling, runs):
            attempted += 1
            p = cfg.params
            if isinstance(run, RuntimeError):
                if "constructed pair violates the cone" in str(run):
                    faults["B.sampler_raises"] += 1
                else:
                    problems.append(f"sampling run raised at r={p.r}, s={p.s}: {run}")
                continue
            if len(run) != cfg.count:
                problems.append(f"sampling run gave {len(run)} pairs, expected {cfg.count}")
            z1 = np.array([_row(a) for a, _ in run])
            z2 = np.array([_row(b) for _, b in run])
            worst = max(checker.constraint_set_violation(z1, p.r, p.s).max(),
                        checker.constraint_set_violation(z2, p.r, p.s).max(),
                        checker.cone_violation(z1 - z2, p.r, p.s, True).max())
            faults["D.sampler_off_cone"] += not worst <= checker.TOL
        self.fault_counts = faults
        return attempted, sum(faults.values()), problems

    def check_once(self) -> list[str]:
        return []

    def extra(self) -> dict:
        return {}


# ---------------------------------------------------------------- planewave

class Planewave:
    """`dynamohull residual --n 64` (levels 16, 32, 64) for the time-dependent
    and the stationary-incompressible CLI directions, entered through
    cli.main, plus staircase_average at n_osc 8, 16, 32 on the decompositions
    of 100 hull points."""

    RESIDUAL_KINDS = ("nonstationary", "stationary-incompressible")
    LEVELS = [16, 32, 64]
    HULL_POINTS = 100
    N_OSC = (8, 16, 32)
    GRID_N = 48
    # A residual this far from the analytic truncation error is wrong
    # mathematics, not rounding: the run is then incorrect.
    RESIDUAL_WRONG = 1e-9

    def __init__(self, dh, seed: int):
        self.dh = dh
        self.p = dh.HullParams(1.0, 1.0)
        self.grid = dh.GridSpec(self.GRID_N)
        cfg = dh.SampleConfig(seed=seed, count=self.HULL_POINTS, params=self.p)
        self.targets = list(dh.oracle.sample_hull(cfg))
        self.decomps = [dh.laminate.decompose(z, self.p) for z in self.targets]
        self.fault_counts = {}

    def round(self):
        dh = self.dh
        planewave = dh.planewave
        kind = dh.ConeKind.NONSTATIONARY
        t0 = time.perf_counter()
        studies = [_run_cli(dh.cli, ["residual", "--n", str(self.LEVELS[-1]), "--kind", k,
                                     "--deterministic"])
                   for k in self.RESIDUAL_KINDS]
        t1 = time.perf_counter()
        stairs = []
        for d in self.decomps:
            xi = planewave.wave_vector_for(d.z1 - d.z2, kind)
            stairs.append([planewave.staircase_average(d, xi, n, self.grid) for n in self.N_OSC])
        t2 = time.perf_counter()
        return (studies, stairs), {
            "refinement_s": t1 - t0,
            "staircase_per_s": len(self.decomps) * len(self.N_OSC) / (t2 - t1),
        }

    def check(self, out) -> tuple[int, int, list[str]]:
        studies, stairs = out
        problems = []
        faults = {"C.grid_residual": 0}
        attempted = 0
        for label, (rc, text) in zip(self.RESIDUAL_KINDS, studies):
            kind = self.dh.ConeKind.from_label(label)
            if rc != 0:
                problems.append(f"residual --kind {label} exited {rc}")
            study = json.loads(text)
            if study["levels"] != self.LEVELS:
                problems.append(f"residual levels {study['levels']}, expected {self.LEVELS}")
                continue
            for n, reported in zip(self.LEVELS, study["residuals"]):
                attempted += 1
                expected = checker.truncation_error(study["direction"], study["xi"], n,
                                                    kind.stationary, kind.incompressible)
                gap = checker.residual_mismatch(reported, expected)
                if gap > self.RESIDUAL_WRONG:
                    problems.append(f"{label} n={n} residuals {reported} are not the "
                                    f"truncation error {expected}")
                elif gap > checker.RESIDUAL_REL_TOL:
                    faults["C.grid_residual"] += 1
            for key in study["residuals"][0]:
                vals = [row[key] for row in study["residuals"]]
                ratios = [c / f for c, f in zip(vals, vals[1:])]
                if not all(ratio >= 3.0 for ratio in ratios):
                    problems.append(f"{label} {key} coarse/fine ratios {ratios} below 3")
        averages = []
        for d, reports in zip(self.decomps, stairs):
            attempted += len(reports)
            averages.extend(_row(rep.average) for rep in reports)
            errors = [rep.error for rep in reports]
            if checker.staircase_ratio_applies(d.lam, self.N_OSC[-1], self.grid.periods,
                                               reports[-1].samples):
                ratios = [fine / coarse for coarse, fine in zip(errors, errors[1:])]
                if not all(0.3 <= ratio <= 0.7 for ratio in ratios):
                    problems.append(f"staircase error ratios {ratios} outside [0.3, 0.7] "
                                    f"at lambda={d.lam}")
        worst = checker.relaxed_set_violation(np.array(averages), 1.0, 1.0, False).max()
        if not worst <= checker.TOL:
            problems.append(f"staircase average outside the relaxed set by {worst}")
        self.fault_counts = faults
        return attempted, sum(faults.values()), problems

    def check_once(self) -> list[str]:
        worst = checker.decomposition_violation(
            [d.lam for d in self.decomps], [_row(d.z1) for d in self.decomps],
            [_row(d.z2) for d in self.decomps], [_row(z) for z in self.targets],
            1.0, 1.0, False).max()
        if not worst <= checker.TOL:
            return [f"staircase input decomposition fails the checker by {worst}"]
        return []

    def extra(self) -> dict:
        return {}


def make(name: str, dh, seed: int):
    """The workload called `name`, with its inputs built from `seed`."""
    if name.startswith("campaign-"):
        return Campaign(dh, name[len("campaign-"):], seed)
    return {"scales": Scales, "planewave": Planewave}[name](dh, seed)


WORKLOADS = ("campaign-nonstationary", "campaign-stationary-incompressible",
             "scales", "planewave")
