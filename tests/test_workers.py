"""The campaign's forked shares against its in-process run.

two_sided_hull_check forks only from a process that runs a single thread,
and numpy's OpenBLAS pool is threads unless OPENBLAS_NUM_THREADS=1.  So each
case runs in a fresh interpreter with that variable set: a function of this
module, called there, which raises on a mismatch.  The CPU count is patched
through os.sched_getaffinity, and every case ends with no child left.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import dynamohull
from dynamohull import (
    ConeKind,
    HullParams,
    SampleConfig,
    Tolerances,
    cli,
    oracle,
    two_sided_hull_check,
)

pytestmark = pytest.mark.skipif(
    not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
         and os.path.isdir("/proc/self/task")),
    reason="the campaign forks only where os.fork, os.sched_getaffinity and /proc exist")

RADII = ((1.0, 1.0), (1e-3, 1e3))


def in_single_thread_process(case):
    """Run case, a function of this module, in a fresh interpreter whose
    OpenBLAS runs one thread; fails with the case's stderr unless it exits 0."""
    paths = [str(Path(dynamohull.__file__).resolve().parents[1]), str(Path(__file__).parent)]
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join([*paths, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", f"import test_workers; test_workers.{case.__name__}()"],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def cpus(n):
    """Patch the CPUs the process may use to n of them."""
    os.sched_getaffinity = lambda pid: set(range(n))


def count_forks():
    """Patch os.fork to count its calls in a list, which it returns."""
    calls, fork = [], os.fork

    def counted():
        calls.append(None)
        return fork()

    os.fork = counted
    return calls


def no_child_left():
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    raise AssertionError("a campaign left a child process")


def raised(fn):
    """The message of the exception fn() raises."""
    try:
        fn()
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    raise AssertionError("no exception")


def byte_identity_across_worker_counts():
    forks = count_forks()
    for block, count in ((7, 300), (3072, 11 * 3072 + 1)):
        oracle.BLOCK = block
        for kind in ConeKind:
            for radii in RADII:
                cfg = SampleConfig(seed=12, count=count, params=HullParams(*radii), kind=kind)
                cpus(1)
                serial = two_sided_hull_check(cfg).to_json()
                assert not forks
                for n in (1, 2, 3):
                    cpus(n)
                    assert two_sided_hull_check(cfg).to_json() == serial, (block, kind, radii, n)
                    assert len(forks) == n - 1, (block, kind, radii, n)
                    no_child_left()
                    forks.clear()


def failures_keep_their_order_and_cut():
    # More than MAX_RECORDED_FAILURES failing mixtures in every share.
    oracle.BLOCK = 7
    tol = Tolerances(eps_mem=1e-17)
    forks = count_forks()
    for kind in ConeKind:
        cfg = SampleConfig(seed=5, count=300, params=HullParams(1.0, 1.0), kind=kind)
        cpus(3)
        shares, _ = oracle._shares(cfg.count)
        assert len(shares) == 3
        for share in shares:
            part = oracle._mixture_share(cfg, tol, share)
            assert part.laminate_failure_count > oracle.HullCheckReport.MAX_RECORDED_FAILURES
        cpus(1)
        serial = two_sided_hull_check(cfg, tol).to_json()
        cpus(3)
        assert two_sided_hull_check(cfg, tol).to_json() == serial, kind
        assert len(forks) == 2
        forks.clear()
        no_child_left()
        assert len(json.loads(serial)["failures"]) == oracle.HullCheckReport.MAX_RECORDED_FAILURES


def off_cone_pairs(cfg, items):
    """Patch the pair builder so that mixtures items of cfg's campaign are
    built from pairs off the cone: u2 is moved on the rows whose turn draw
    is that of one of the items."""
    w = oracle._generator(cfg).random(8 * cfg.count).reshape(cfg.count, 8)
    marked = [w[i, 6] for i in items]
    circle_point = oracle._circle_point

    def moved(b1, u1, b2, e1, draw, restricts_u):
        u2 = circle_point(b1, u1, b2, e1, draw, restricts_u)
        for i, d in enumerate(marked):
            u2[0][draw == d] += 0.25 * (i + 1)
        return u2

    oracle._circle_point = moved


def the_serial_error_is_raised():
    # Pairs off the cone in the second and the last share, and a failing hull
    # half: the serial run raises the second share's error, and so does every
    # worker count.
    oracle.BLOCK = 7
    forks = count_forks()
    for kind in (ConeKind.NONSTATIONARY, ConeKind.STATIONARY_INCOMPRESSIBLE):
        cfg = SampleConfig(seed=8, count=300, params=HullParams(1e-3, 1e3), kind=kind)
        cpus(3)
        shares, _ = oracle._shares(cfg.count)
        assert len(shares) == 3
        circle_point = oracle._circle_point
        off_cone_pairs(cfg, [shares[2][1] - 1])
        cpus(1)
        last = raised(lambda: two_sided_hull_check(cfg))
        assert last.startswith("RuntimeError: constructed pair violates the cone"), last
        cpus(3)
        assert raised(lambda: two_sided_hull_check(cfg)) == last
        assert len(forks) == 2
        forks.clear()
        no_child_left()

        oracle._circle_point = circle_point
        off_cone_pairs(cfg, [shares[1][0] + 3, shares[2][1] - 1])
        hull_half = oracle._hull_half

        def failing_hull(cfg, tol):
            raise RuntimeError("the hull half failed")

        oracle._hull_half = failing_hull
        cpus(1)
        first = raised(lambda: two_sided_hull_check(cfg))
        assert first.startswith("RuntimeError: constructed pair violates the cone"), first
        assert first != last
        for n in (2, 3):
            cpus(n)
            assert raised(lambda: two_sided_hull_check(cfg)) == first, n
            assert len(forks) == n - 1
            forks.clear()
            no_child_left()
        oracle._circle_point, oracle._hull_half = circle_point, hull_half


def a_failed_fork_runs_the_share_in_process():
    # A process limit: os.fork raises BlockingIOError, the share runs in the
    # parent, and the CLI exits 0 with the serial report, not 2.
    oracle.BLOCK = 7
    argv = ["verify-hull", "--count", "300", "--seed", "3", "--deterministic"]
    cpus(1)
    serial = cli_output(argv)
    cpus(2)

    def no_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    os.fork = no_fork
    assert cli_output(argv) == serial
    no_child_left()


def cli_output(argv):
    """The standard output of cli.main(argv), which must exit 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


def a_child_that_dies_raises():
    # The first child exits 3 before it sends its report: RuntimeError naming
    # status 3, and the second child is killed and reaped.
    oracle.BLOCK = 7
    parent, share = os.getpid(), oracle._mixture_share

    def dies(cfg, tol, bounds):
        if os.getpid() != parent and 0 < bounds[0] < 150:
            os._exit(3)
        return share(cfg, tol, bounds)

    oracle._mixture_share = dies
    cpus(3)
    cfg = SampleConfig(seed=3, count=300, params=HullParams(1.0, 1.0))
    message = raised(lambda: two_sided_hull_check(cfg))
    assert message.startswith("RuntimeError: campaign worker ") and "status 3" in message, message
    no_child_left()


def an_interrupt_kills_every_child():
    # A KeyboardInterrupt in the parent while its children still work: both
    # are killed (SIGKILL; they would sleep for a minute) and reaped before it
    # propagates.
    oracle.BLOCK = 7
    parent, share = os.getpid(), oracle._mixture_share

    def sleeps(cfg, tol, bounds):
        if os.getpid() != parent:
            time.sleep(60)
        return share(cfg, tol, bounds)

    def interrupted(cfg, tol):
        raise KeyboardInterrupt

    oracle._mixture_share, oracle._hull_half = sleeps, interrupted
    cpus(3)
    t = time.perf_counter()
    try:
        two_sided_hull_check(SampleConfig(seed=3, count=300, params=HullParams(1.0, 1.0)))
    except KeyboardInterrupt:
        pass
    else:
        raise AssertionError("no KeyboardInterrupt")
    assert time.perf_counter() - t < 30
    no_child_left()


def a_second_thread_keeps_the_campaign_in_process():
    # No fork beside another thread: with one running, one share.
    oracle.BLOCK = 7
    cpus(3)
    assert len(oracle._shares(300)[0]) == 3
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert oracle._shares(300) == ([(0, 300)], [])
    finally:
        stop.set()
        thread.join()
    assert len(oracle._shares(300)[0]) == 3


@pytest.mark.parametrize("case", [
    byte_identity_across_worker_counts,
    failures_keep_their_order_and_cut,
    the_serial_error_is_raised,
    a_failed_fork_runs_the_share_in_process,
    a_child_that_dies_raises,
    an_interrupt_kills_every_child,
    a_second_thread_keeps_the_campaign_in_process,
], ids=lambda case: case.__name__)
def test_forked_campaign(case):
    in_single_thread_process(case)


def test_shares_are_whole_blocks_of_at_least_the_minimum(monkeypatch):
    # Equal, contiguous runs of whole blocks covering [0, count), as many as
    # the CPUs while each holds MIN_SHARE_BLOCKS blocks.  The process is
    # taken for single-threaded here; nothing forks.
    monkeypatch.setattr(os, "listdir", lambda path: ["1"])
    block, least = oracle.BLOCK, oracle.MIN_SHARE_BLOCKS
    for n in (1, 2, 3, 5):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=n: set(range(n)))
        for count in (0, 1, block, 2 * least * block - 1, 2 * least * block, 100_000, 10 ** 6):
            shares, workers = oracle._shares(count)
            blocks = -(-count // block)
            assert len(shares) == max(1, min(n, blocks // least)), (n, count)
            assert shares[0][0] == 0 and shares[-1][1] == count
            assert all(a[1] == b[0] for a, b in zip(shares, shares[1:]))
            sizes = [-(-(stop - start) // block) for start, stop in shares]
            assert all(start % block == 0 for start, _ in shares)
            if len(shares) > 1:
                assert min(sizes) >= least and max(sizes) - min(sizes) <= 1
                assert len(workers) >= len(shares) - 1
