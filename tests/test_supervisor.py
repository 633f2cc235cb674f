"""Supervised grid execution — ``run_grid(..., timeout=, retries=)``:
SIGKILL recovery, timeouts, retry budget, failed cells in place, and
worker-error context.

The headline guarantee: a sweep whose workers are killed mid-run
recovers by retrying the dead cells, and the recovered merge is
bit-identical to an undisturbed sweep — each retry replays the same
deterministic simulation.  A cell that exhausts its budget becomes a
structured :class:`FailedTask` at its grid index instead of aborting
the sweep.
"""

import dataclasses
import math
import multiprocessing
import os
import pickle
import signal
import time

import pytest

from repro.experiments import workers
from repro.experiments.parallel import (
    FailedTask,
    GridTaskError,
    RunSummary,
    run_grid,
    scheme_grid,
)
from repro.experiments.scenarios import all_to_all_scenario, sim_fabric
from repro.experiments.workers import backoff_delay
from repro.transport.dctcp import Dctcp
from repro.workloads.distributions import WEB_SEARCH

FORK = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(not FORK, reason="needs fork start method")


def small_scenario(seed=1):
    return all_to_all_scenario(
        f"sup-{seed}", WEB_SEARCH, load=0.5, n_flows=8, size_cap=100_000,
        seed=seed, fabric=sim_fabric(n_leaf=2, n_spine=1, hosts_per_leaf=2),
        max_time=0.02)


SCHEMES = {"dctcp": Dctcp}
VARIANTS = [{"seed": 1}, {"seed": 2}, {"seed": 3}]


def summary_fingerprint(summary):
    return (summary.scheme, summary.health.completed, summary.health.n_flows,
            summary.health.events_run, repr(summary.stats.overall_avg))


def failed_cells(results):
    return [r for r in results if isinstance(r, FailedTask)]


def attempts_total(results):
    """Every process the grid launched (failed cells count theirs)."""
    return sum(r.attempts for r in results)


@pytest.fixture
def fast_retries(monkeypatch):
    monkeypatch.setattr(workers, "BACKOFF_BASE", 0.01)


# -- backoff ---------------------------------------------------------------


def test_backoff_delay_is_exponential_and_capped():
    assert (workers.BACKOFF_BASE, workers.BACKOFF_MAX) == (0.25, 5.0)
    assert backoff_delay(0) == 0.0
    assert backoff_delay(1) == 0.25
    assert backoff_delay(2) == 0.5
    assert backoff_delay(3) == 1.0
    assert backoff_delay(10) == 5.0  # capped


# -- happy path ------------------------------------------------------------


@needs_fork
def test_supervised_grid_matches_unsupervised():
    tasks = scheme_grid(SCHEMES, small_scenario, VARIANTS)
    plain = run_grid(scheme_grid(SCHEMES, small_scenario, VARIANTS), jobs=2)
    results = run_grid(tasks, jobs=2, timeout=120.0, retries=2)
    assert all(isinstance(r, RunSummary) for r in results)
    assert attempts_total(results) == len(tasks)
    assert [summary_fingerprint(s) for s in results] == \
        [summary_fingerprint(s) for s in plain]
    # how a summary was obtained takes no part in what it equals
    assert dataclasses.replace(results[0], attempts=3) == results[0]


# -- SIGKILL recovery ------------------------------------------------------


@needs_fork
def test_sigkilled_worker_is_retried_and_merge_is_identical(tmp_path,
                                                            fast_retries):
    """A worker SIGKILLed mid-cell (like an OOM kill) is detected as a
    crash, relaunched, and the recovered sweep merges bit-identically
    to one that was never disturbed."""
    marker = str(tmp_path / "killed-once")

    def killing_factory(seed=1):
        if seed == 2 and not os.path.exists(marker):
            open(marker, "w").close()
            os.kill(os.getpid(), signal.SIGKILL)
        return small_scenario(seed)

    undisturbed = run_grid(scheme_grid(SCHEMES, small_scenario, VARIANTS),
                           jobs=2)
    tasks = scheme_grid(SCHEMES, killing_factory, VARIANTS)
    results = run_grid(tasks, jobs=2, retries=2)
    assert not failed_cells(results), \
        [f.describe() for f in failed_cells(results)]
    assert os.path.exists(marker), "the kill never fired"
    # exactly one relaunch, and it was the killed cell's
    assert [s.attempts for s in results] == [1, 2, 1]
    assert [summary_fingerprint(s) for s in results] == \
        [summary_fingerprint(s) for s in undisturbed]


@needs_fork
def test_crash_quarantine_records_signal_exitcode(tmp_path, fast_retries):
    """A cell that dies on every attempt is quarantined with the crash
    reason and the -SIGKILL exit code; its neighbours still complete."""

    def always_dies(seed=1):
        if seed == 2:
            os.kill(os.getpid(), signal.SIGKILL)
        return small_scenario(seed)

    tasks = scheme_grid(SCHEMES, always_dies, VARIANTS)
    results = run_grid(tasks, jobs=2, retries=1)
    assert len(failed_cells(results)) == 1
    failed = failed_cells(results)[0]
    assert failed.reason == "crashed"
    assert failed.attempts == 2  # first attempt + one retry
    assert failed.exitcode == -signal.SIGKILL
    assert failed.error.params == {"seed": 2}
    assert "cell 1 (dctcp @ {'seed': 2}), 2 attempt(s), crashed, exit -9: " \
        in failed.describe()
    # deterministic partial merge: the failed cell sits at its own grid
    # index, the neighbours' summaries are intact and in grid order
    assert failed.index == 1 and results[1] is failed
    assert [r.params["seed"] for r in results
            if isinstance(r, RunSummary)] == [1, 3]


# -- timeout ---------------------------------------------------------------


@needs_fork
def test_hung_worker_is_killed_and_retried(tmp_path, fast_retries):
    marker = str(tmp_path / "hung-once")

    def hanging_factory(seed=1):
        if seed == 2 and not os.path.exists(marker):
            open(marker, "w").close()
            time.sleep(600.0)
        return small_scenario(seed)

    tasks = scheme_grid(SCHEMES, hanging_factory, VARIANTS)
    results = run_grid(tasks, jobs=2, timeout=0.5, retries=2)
    assert not failed_cells(results), \
        [f.describe() for f in failed_cells(results)]
    assert attempts_total(results) == len(tasks) + 1


@needs_fork
def test_always_hung_worker_is_quarantined_with_timeout_reason(tmp_path,
                                                               fast_retries):
    def always_hangs(seed=1):
        if seed == 2:
            time.sleep(600.0)
        return small_scenario(seed)

    tasks = scheme_grid(SCHEMES, always_hangs, VARIANTS)
    results = run_grid(tasks, jobs=2, timeout=0.3, retries=1)
    assert len(failed_cells(results)) == 1
    failed = failed_cells(results)[0]
    assert failed.reason == "timeout"
    assert failed.attempts == 2
    assert "limit 0.30s" in failed.error.cause
    assert ", timeout, exit -9: no result after" in failed.describe()
    assert [r.params["seed"] for r in results
            if isinstance(r, RunSummary)] == [1, 3]


@needs_fork
def test_timeout_is_enforced_with_one_worker():
    """A deadline needs a killable process, so ``timeout`` forks even a
    serial grid.  In-process, the hang would sit in this very
    process: the test is bounded from outside by a SIGALRM."""

    def always_hangs(seed=1):
        time.sleep(600.0)

    def too_slow(signum, frame):
        raise AssertionError("the hanging cell ran in-process: "
                             "timeout was never enforced")

    tasks = scheme_grid(SCHEMES, always_hangs, [{"seed": 1}])
    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.alarm(20)
    try:
        results = run_grid(tasks, jobs=1, timeout=0.3, retries=0)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert [f.reason for f in results] == ["timeout"]
    assert attempts_total(results) == 1
    assert multiprocessing.active_children() == []


# -- exceptions ------------------------------------------------------------


@needs_fork
def test_exception_quarantine_carries_worker_traceback(fast_retries):
    def raising_factory(seed=1):
        if seed == 2:
            raise ValueError("synthetic cell failure")
        return small_scenario(seed)

    tasks = scheme_grid(SCHEMES, raising_factory, VARIANTS)
    results = run_grid(tasks, jobs=2, retries=1)
    assert len(failed_cells(results)) == 1
    failed = failed_cells(results)[0]
    assert failed.reason == "exception"
    # the error the unsupervised grid would have raised for this cell
    assert isinstance(failed.error, GridTaskError)
    assert failed.error.scheme == "dctcp"
    assert failed.error.params == {"seed": 2}
    assert "synthetic cell failure" in failed.error.cause
    assert "raising_factory" in failed.error.worker_traceback
    # a worker that reported its exception exited 0: not worth printing
    assert failed.describe() == (
        "cell 1 (dctcp @ {'seed': 2}), 2 attempt(s), exception: "
        "ValueError: synthetic cell failure")


@needs_fork
def test_serial_supervision_retries_exceptions(tmp_path, fast_retries):
    """A supervised grid forks its attempts even at ``jobs=1``, so an
    exception gets the retry budget — in a fresh process each time — and
    the failed-cell treatment."""
    marker = str(tmp_path / "raised-once")

    def flaky_factory(seed=1):
        if seed == 2 and not os.path.exists(marker):
            open(marker, "w").close()
            raise RuntimeError("transient")
        return small_scenario(seed)

    tasks = scheme_grid(SCHEMES, flaky_factory, VARIANTS)
    results = run_grid(tasks, jobs=1, retries=1)
    assert not failed_cells(results)
    assert attempts_total(results) == len(tasks) + 1

    def always_raises(seed=1):
        raise RuntimeError("permanent")

    tasks = scheme_grid(SCHEMES, always_raises, [{"seed": 5}])
    results = run_grid(tasks, jobs=1, retries=1)
    assert [f.reason for f in results] == ["exception"]
    assert results[0].attempts == 2
    assert "permanent" in results[0].error.cause


def test_supervision_without_fork_is_one_in_process_attempt(monkeypatch):
    """No fork, no fresh interpreter to retry in: re-running a seeded
    cell here could only replay the same exception, so it gets its one
    attempt and the exception still lands in place as a FailedTask."""
    import repro.experiments.parallel as par

    calls = []

    def raises_on_two(seed=1):
        calls.append(seed)
        if seed == 2:
            raise RuntimeError("permanent")
        return small_scenario(seed)

    monkeypatch.setattr(workers, "fork_available", lambda: False)
    monkeypatch.setattr(par, "_warned_no_fork", True)  # keep it quiet
    tasks = scheme_grid(SCHEMES, raises_on_two, VARIANTS)
    results = run_grid(tasks, jobs=2, timeout=60.0, retries=3)
    assert calls == [1, 2, 3]
    assert [isinstance(r, FailedTask) for r in results] == \
        [False, True, False]
    failed = results[1]
    assert (failed.reason, failed.attempts, failed.exitcode) == \
        ("exception", 1, None)
    assert "permanent" in failed.error.cause
    assert "raises_on_two" in failed.error.worker_traceback


# -- worker-error context in the unsupervised pool (parallel.py) -----------


@needs_fork
def test_grid_task_error_names_the_failing_cell():
    """run_grid's pool path wraps worker exceptions so the parent knows
    exactly which (scheme, params) cell died and where."""

    def bad_factory(seed=1):
        if seed == 9:
            raise ValueError("cell exploded")
        return small_scenario(seed)

    tasks = scheme_grid(SCHEMES, bad_factory, [{"seed": 1}, {"seed": 9}])
    with pytest.raises(GridTaskError) as excinfo:
        run_grid(tasks, jobs=2)
    err = excinfo.value
    assert err.scheme == "dctcp"
    assert err.params == {"seed": 9}
    assert "ValueError" in err.cause
    assert "cell exploded" in err.worker_traceback
    assert "bad_factory" in err.worker_traceback
    # the rendered message carries all of it for plain tracebacks
    assert "seed" in str(err) and "worker traceback" in str(err)


def test_grid_task_error_survives_pickling():
    err = GridTaskError("lbl", "dctcp", {"seed": 9}, "ValueError('x')",
                        "Traceback ...")
    clone = pickle.loads(pickle.dumps(err))
    assert isinstance(clone, GridTaskError)
    assert clone.label == "lbl"
    assert clone.scheme == "dctcp"
    assert clone.params == {"seed": 9}
    assert clone.cause == "ValueError('x')"
    assert clone.worker_traceback == "Traceback ..."


@pytest.mark.parametrize("timeout", [0.0, -1.0, math.nan, math.inf])
def test_run_grid_rejects_bad_timeout(timeout):
    """A NaN deadline was never enforced (the parent busy-polled) and an
    infinite one overflowed the wait, so both are refused up front."""
    with pytest.raises(ValueError, match="timeout must be finite"):
        run_grid([], timeout=timeout)


def test_run_grid_rejects_negative_retries():
    """``retries=-1`` used to run like ``retries=0``."""
    with pytest.raises(ValueError, match="retries must be >= 0"):
        run_grid([], retries=-1)


def test_empty_grid_is_a_noop():
    assert run_grid([], jobs=4) == []
    assert run_grid([], jobs=4, timeout=1.0, retries=1) == []
