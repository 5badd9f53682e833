#!/usr/bin/env python3
"""Benchmark of dynamohull, run from outside the program.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the program is imported from
./src. One process, one thread. The workload's inputs are built from the
seed, then whole rounds of the same program calls repeat until --seconds
have passed; every round's outputs are checked by perfbench/checker.py.

--trace 0 prints the end-to-end metrics: set-up time of a fresh interpreter
(median of several), the median time of a round, both at a reference host
speed, and the peak resident memory of a fresh process running one round.
--trace 1 alternates untraced and traced rounds and prints the per-layer
metrics from the traced rounds' spans, the layers' self times and the
tracing overhead; the spans are written to .perfbench_out/. The metric
names and units are those of BENCHMARK.json. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.
"""

from __future__ import annotations

import os

# One thread: set before numpy is imported, here and in every child.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import math
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checker
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

SETUP_REPEATS = 5
SETUP_CODE = """
import dynamohull as dh
p = dh.HullParams(1.0, 1.0)
z = dh.Triple(dh.Vec3(0.3, 0.0, 0.0), dh.Vec3(0.0, 0.4, 0.0), dh.Vec3(0.0, 0.0, 0.5))
d = dh.decompose(z, p)
if not (dh.in_hull(z, p) and dh.verify_decomposition(d, z, p).passed):
    raise SystemExit("set-up probe: wrong result")
"""
# Peak memory is taken in a fresh process that builds the workload's inputs
# and runs one round, without the reference task's arrays. It reads VmHWM:
# ru_maxrss would carry over the forked parent's resident set across exec.
RSS_CODE = """
import sys
import dynamohull, dynamohull.cli, workloads
workloads.make(sys.argv[1], dynamohull, int(sys.argv[2])).round()
with open("/proc/self/status") as status:
    print(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
"""


def metric_units(section: str) -> dict:
    """{name: unit} of the end_to_end or per_layer metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def load_program():
    """Import dynamohull from ./src of the checkout, and nowhere else."""
    if not (SRC / "dynamohull" / "__init__.py").is_file():
        raise SystemExit(f"error: no dynamohull sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import dynamohull
    import dynamohull.cli  # noqa: F401  (binds dynamohull.cli)
    if Path(dynamohull.__file__).resolve().parent != (SRC / "dynamohull").resolve():
        raise SystemExit(f"error: imported dynamohull from {dynamohull.__file__}")
    return dynamohull


def provenance(workload: str, seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "dynamohull").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"workload": workload, "seed": seed, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "git_commit": commit, "source_sha256": digest.hexdigest()}


# The host this benchmark was written on changes speed by up to 2x within a
# minute (a shared machine). Every timed stretch is therefore bracketed by
# timings of a fixed reference task, and its wall time is reported scaled by
# REFERENCE_S over the mean reference time just before and after it: seconds
# at the host speed at which the task takes REFERENCE_S. The task does the
# two kinds of work the program does, scalar float arithmetic on small tuples
# in Python and a centred-difference pass over a 64^3 numpy grid, and runs
# none of the program's code, so a change to the program cannot move it.
REFERENCE_S = 0.015
_REFERENCE_GRID = (np.arange(64 ** 3, dtype=np.float64) * 1e-4).reshape(64, 64, 64)


def _reference_task():
    acc = 0.0
    for i in range(20000):
        v = (i * 0.5, i * 0.25, 1.0)
        acc += math.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2])
    wave = np.sin(_REFERENCE_GRID)
    for axis in range(3):
        float(np.abs(np.roll(wave, -1, axis) - np.roll(wave, 1, axis)).max())


def reference_seconds() -> float:
    """Median of three timings of the reference task, after one untimed run
    that brings its data back into the caches."""
    _reference_task()
    times = []
    for _ in range(3):
        t = time.perf_counter()
        _reference_task()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def timed(fn):
    """(fn(), wall seconds, speed factor): the factor turns the wall time
    into seconds at the reference speed."""
    before = reference_seconds()
    t = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - t
    after = reference_seconds()
    return result, wall, REFERENCE_S / (0.5 * (before + after))


def setup_seconds() -> tuple[float, float]:
    """Medians of (scaled, wall) time of a fresh interpreter importing
    dynamohull and making its first small call."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    scaled, wall = [], []
    for _ in range(SETUP_REPEATS):
        _, dt, factor = timed(lambda: subprocess.run(
            [sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT, check=True, timeout=60))
        scaled.append(dt * factor)
        wall.append(dt)
    return statistics.median(scaled), statistics.median(wall)


def peak_rss_mb(name: str, seed: int) -> float:
    """Peak resident memory of a fresh process running one round."""
    env = dict(os.environ, PYTHONPATH=f"{SRC}{os.pathsep}{HERE}")
    proc = subprocess.run([sys.executable, "-c", RSS_CODE, name, str(seed)], env=env,
                          cwd=ROOT, capture_output=True, text=True, check=True, timeout=170)
    return int(proc.stdout.split()[-1]) / 1024.0  # VmHWM is in kB


def scale_phases(phases: dict, factor: float) -> dict:
    """Scale a round's phase figures to the reference speed: times (*_s)
    by the factor, rates (*_per_s) by its inverse."""
    return {k: v / factor if k.endswith("_per_s") else v * factor for k, v in phases.items()}


class Rounds:
    """Runs rounds of one workload, checks each, and counts operations."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run(self) -> tuple[float, float, dict]:
        """One checked round: (wall seconds, speed factor, phase figures)."""
        (out, phases), wall, factor = timed(self.wl.round)
        attempted, failed, problems = self.wl.check(out)
        self.attempted += attempted
        self.failed += failed
        self.problems.extend(problems)
        return wall, factor, phases


def layer_metrics(summary: dict, extra: dict, factor: float) -> dict:
    """Per-layer metrics of one traced round, times at the reference speed."""
    per_name, grid = summary["per_name"], summary["grid"]

    def per_call_us(name):
        calls, total, _ = per_name.get(name, (0, 0.0, 0.0))
        return total / calls * 1e6 * factor if calls else 0.0

    m = {f"{layer}.self_ms": t * 1e3 * factor for layer, t in summary["per_layer"].items()}
    m.update({
        "oracle.mixture_us": per_call_us("oracle.sample_first_laminate"),
        "oracle.hull_point_us": per_call_us("oracle.sample_hull"),
        "oracle.pair_attempts_per_mixture": extra.get("oracle.pair_attempts_per_mixture", 0.0),
        "oracle.two_sided_self_ms": per_name["oracle.two_sided_hull_check"][2] * 1e3 * factor,
        "core.in_hull_us": per_call_us("core.in_hull"),
        "core.separation_witness_us": per_call_us("core.separation_witness"),
        "laminate.decompose_us": per_call_us("laminate.decompose"),
        "laminate.verify_us": per_call_us("laminate.verify_decomposition"),
        "planewave.staircase_us": per_call_us("planewave.staircase_average"),
        "trace.spans_per_round": float(summary["spans"]),
    })
    for n in (16, 32, 64):
        m[f"planewave.grid_residual_ms.n{n}"] = grid.get(n, (0.0, 0))[0] * 1e3 * factor
    cells = sum(c for _, c in grid.values())
    m["planewave.stencil_ns_per_point"] = (
        sum(t for t, _ in grid.values()) / cells * 1e9 * factor if cells else 0.0)
    return m


def run_workload(dh, name: str, seed: int, seconds: float, trace: bool) -> dict:
    prov = provenance(name, seed)
    print("provenance " + json.dumps(prov, sort_keys=True))
    missed = checker.self_test()
    if missed:
        raise SystemExit(f"error: checker self-test did not reject: {missed}")
    if not trace:
        setup_s, setup_wall = setup_seconds()

    wl = workloads.make(name, dh, seed)
    rounds = Rounds(wl)
    rounds.problems.extend(wl.check_once())
    tracer = tracing.Tracer()
    untraced, traced, summaries = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        untraced.append(rounds.run())
        if trace:
            lo = tracer.mark()
            with tracer.installed():
                traced.append(rounds.run())
            summaries.append(tracing.round_summary(tracer, lo, tracer.mark()))
        if time.perf_counter() >= deadline:
            break

    round_s = statistics.median(wall * f for wall, f, _ in untraced)
    print(f"workload {name}: {len(untraced)} untraced rounds"
          + (f", {len(traced)} traced rounds" if trace else "")
          + f", {rounds.attempted} operations attempted, {rounds.failed} failed")
    for key, val in wl.fault_counts.items():
        print(f"  failed per round, fault {key}: {val}")
    print(f"  {'round wall time':<28} median {statistics.median(w for w, _, _ in untraced):.6g} s"
          f"  (speed factor median {statistics.median(f for _, f, _ in untraced):.4g})")
    phases = [scale_phases(ph, f) for _, f, ph in untraced]
    for key in phases[0]:
        vals = [ph[key] for ph in phases]
        print(f"  {key:<28} median {statistics.median(vals):.6g}  "
              f"(min {min(vals):.6g}, max {max(vals):.6g}, n={len(vals)})")
    for problem in rounds.problems[:20]:
        print(f"  PROBLEM: {problem}")

    if trace:
        per_round = [layer_metrics(s, wl.extra(), f) for s, (_, f, _) in zip(summaries, traced)]
        metrics = {k: statistics.median(m[k] for m in per_round) for k in per_round[0]}
        metrics["trace.overhead_s"] = statistics.median(w * f for w, f, _ in traced) - round_s
        units = metric_units("per_layer")
        OUT_DIR.mkdir(exist_ok=True)
        tracer.save(OUT_DIR / f"spans-{name}-seed{seed}.npz")
    else:
        print(f"  {'setup wall time':<28} median {setup_wall:.6g} s")
        metrics = {"setup_s": setup_s, "round_s": round_s,
                   "peak_rss_mb": peak_rss_mb(name, seed)}
        units = metric_units("end_to_end")
    for key in units:
        print(f"  {key:<34} {metrics[key]:.6g} {units[key]}")
    return {"correct": not rounds.problems, "attempted": rounds.attempted,
            "failed": rounds.failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}


def run_all(args) -> dict:
    """Every workload in a fresh child process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode not in (0, 1) or not proc.stdout.strip():
            raise SystemExit(f"error: workload {name} exited {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, val in result["metrics"].items():
            combined["metrics"][f"{name}/{key}"] = val
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        result = run_all(args)
    else:
        dh = load_program()
        result = run_workload(dh, args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
