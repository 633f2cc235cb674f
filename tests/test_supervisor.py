"""Supervised grid execution: SIGKILL recovery, timeouts, retry budget,
quarantine, and worker-error context.

The headline guarantee: a sweep whose workers are killed mid-run
recovers by retrying the dead cells, and the recovered merge is
bit-identical to an undisturbed sweep — each retry replays the same
deterministic simulation.  A cell that exhausts its budget becomes a
structured :class:`FailedTask` instead of aborting the sweep.
"""

import multiprocessing
import os
import pickle
import signal
import time

import pytest

from repro.experiments.parallel import (
    GridTaskError,
    run_grid,
    scheme_grid,
)
from repro.experiments.scenarios import all_to_all_scenario, sim_fabric
from repro.resilience import (
    SupervisedResult,
    backoff_delay,
    supervise_grid,
)
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
    return (summary.scheme, summary.completed, summary.n_flows,
            summary.wall_events, repr(summary.stats.overall_avg))


# -- backoff ---------------------------------------------------------------


def test_backoff_delay_is_exponential_and_capped():
    assert backoff_delay(0, 0.25, 5.0) == 0.0
    assert backoff_delay(1, 0.25, 5.0) == 0.25
    assert backoff_delay(2, 0.25, 5.0) == 0.5
    assert backoff_delay(3, 0.25, 5.0) == 1.0
    assert backoff_delay(10, 0.25, 5.0) == 5.0  # capped


# -- happy path ------------------------------------------------------------


@needs_fork
def test_supervised_grid_matches_unsupervised():
    tasks = scheme_grid(SCHEMES, small_scenario, VARIANTS)
    plain = run_grid(scheme_grid(SCHEMES, small_scenario, VARIANTS), jobs=2)
    outcome = supervise_grid(tasks, jobs=2, task_timeout=120.0, retries=2)
    assert isinstance(outcome, SupervisedResult)
    assert outcome.ok
    assert outcome.attempts_total == len(tasks)
    assert [summary_fingerprint(s) for s in outcome.summaries] == \
        [summary_fingerprint(s) for s in plain]
    assert outcome.completed() == outcome.summaries


# -- SIGKILL recovery ------------------------------------------------------


@needs_fork
def test_sigkilled_worker_is_retried_and_merge_is_identical(tmp_path):
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
    outcome = supervise_grid(tasks, jobs=2, retries=2, backoff_base=0.01)
    assert outcome.ok, [f.describe() for f in outcome.failed]
    assert os.path.exists(marker), "the kill never fired"
    assert outcome.attempts_total == len(tasks) + 1  # exactly one retry
    assert [summary_fingerprint(s) for s in outcome.summaries] == \
        [summary_fingerprint(s) for s in undisturbed]


@needs_fork
def test_crash_quarantine_records_signal_exitcode(tmp_path):
    """A cell that dies on every attempt is quarantined with the crash
    reason and the -SIGKILL exit code; its neighbours still complete."""

    def always_dies(seed=1):
        if seed == 2:
            os.kill(os.getpid(), signal.SIGKILL)
        return small_scenario(seed)

    tasks = scheme_grid(SCHEMES, always_dies, VARIANTS)
    outcome = supervise_grid(tasks, jobs=2, retries=1, backoff_base=0.01)
    assert not outcome.ok
    assert len(outcome.failed) == 1
    failed = outcome.failed[0]
    assert failed.reason == "crashed"
    assert failed.attempts == 2  # first attempt + one retry
    assert failed.exitcode == -signal.SIGKILL
    assert failed.params == {"seed": 2}
    assert "cell" in failed.describe()
    # deterministic partial merge: the hole is at the failed index, the
    # neighbours' summaries are intact and in grid order
    assert outcome.summaries[failed.index] is None
    assert [s.params["seed"] for s in outcome.completed()] == [1, 3]


# -- timeout ---------------------------------------------------------------


@needs_fork
def test_hung_worker_is_killed_and_retried(tmp_path):
    marker = str(tmp_path / "hung-once")

    def hanging_factory(seed=1):
        if seed == 2 and not os.path.exists(marker):
            open(marker, "w").close()
            time.sleep(600.0)
        return small_scenario(seed)

    tasks = scheme_grid(SCHEMES, hanging_factory, VARIANTS)
    outcome = supervise_grid(tasks, jobs=2, task_timeout=0.5, retries=2,
                             backoff_base=0.01)
    assert outcome.ok, [f.describe() for f in outcome.failed]
    assert outcome.attempts_total == len(tasks) + 1


@needs_fork
def test_always_hung_worker_is_quarantined_with_timeout_reason(tmp_path):
    def always_hangs(seed=1):
        if seed == 2:
            time.sleep(600.0)
        return small_scenario(seed)

    tasks = scheme_grid(SCHEMES, always_hangs, VARIANTS)
    outcome = supervise_grid(tasks, jobs=2, task_timeout=0.3, retries=1,
                             backoff_base=0.01)
    assert len(outcome.failed) == 1
    failed = outcome.failed[0]
    assert failed.reason == "timeout"
    assert failed.attempts == 2
    assert "task_timeout" in failed.detail
    assert [s.params["seed"] for s in outcome.completed()] == [1, 3]


@needs_fork
def test_timeout_is_enforced_with_one_worker():
    """A deadline needs a killable process, so ``task_timeout`` forks
    even a serial grid.  In-process, the hang would sit in this very
    process: the test is bounded from outside by a SIGALRM."""

    def always_hangs(seed=1):
        time.sleep(600.0)

    def too_slow(signum, frame):
        raise AssertionError("the hanging cell ran in-process: "
                             "task_timeout was never enforced")

    tasks = scheme_grid(SCHEMES, always_hangs, [{"seed": 1}])
    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.alarm(20)
    try:
        outcome = supervise_grid(tasks, jobs=1, task_timeout=0.3, retries=0)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert [f.reason for f in outcome.failed] == ["timeout"]
    assert outcome.summaries == [None]
    assert outcome.attempts_total == 1
    assert multiprocessing.active_children() == []


# -- exceptions ------------------------------------------------------------


@needs_fork
def test_exception_quarantine_carries_worker_traceback():
    def raising_factory(seed=1):
        if seed == 2:
            raise ValueError("synthetic cell failure")
        return small_scenario(seed)

    tasks = scheme_grid(SCHEMES, raising_factory, VARIANTS)
    outcome = supervise_grid(tasks, jobs=2, retries=1, backoff_base=0.01)
    assert len(outcome.failed) == 1
    failed = outcome.failed[0]
    assert failed.reason == "exception"
    assert failed.scheme == "dctcp"
    assert failed.params == {"seed": 2}
    assert "synthetic cell failure" in failed.detail
    assert "raising_factory" in failed.detail  # the worker-side traceback


def test_serial_supervision_retries_exceptions(tmp_path):
    """Without fork (or jobs=1) cells run in-process; exceptions still
    get the retry budget and quarantine treatment."""
    marker = str(tmp_path / "raised-once")

    def flaky_factory(seed=1):
        if seed == 2 and not os.path.exists(marker):
            open(marker, "w").close()
            raise RuntimeError("transient")
        return small_scenario(seed)

    tasks = scheme_grid(SCHEMES, flaky_factory, VARIANTS)
    outcome = supervise_grid(tasks, jobs=1, retries=1, backoff_base=0.01)
    assert outcome.ok
    assert outcome.attempts_total == len(tasks) + 1

    def always_raises(seed=1):
        raise RuntimeError("permanent")

    tasks = scheme_grid(SCHEMES, always_raises, [{"seed": 5}])
    outcome = supervise_grid(tasks, jobs=1, retries=1, backoff_base=0.01)
    assert not outcome.ok
    assert outcome.failed[0].reason == "exception"
    assert outcome.failed[0].attempts == 2
    assert "permanent" in outcome.failed[0].detail


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


def test_empty_grid_is_a_noop():
    outcome = supervise_grid([], jobs=4)
    assert outcome.ok and outcome.summaries == [] \
        and outcome.attempts_total == 0
