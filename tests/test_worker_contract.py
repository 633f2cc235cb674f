"""The worker contract, checked through both policies of the one door.

``run_grid(tasks, jobs=)`` and ``run_grid(tasks, jobs=, retries=0[,
timeout=])`` sit on one primitive
(:func:`repro.experiments.workers.run_forked`), so whatever a worker
does — raise, get SIGKILLed, hang, finish out of order, return
something that will not pickle — each of them must report it the same
way: promptly, naming the worker, with the worker's traceback when there
is one, and with no child process left behind.

A policy here is an adapter that runs ``N`` workers, calls ``before(i)``
inside worker ``i`` ahead of its real work and passes its result through
``after(i, value)``, and folds what came back into a :class:`Report`.
"""

import multiprocessing
import os
import signal
import time
from dataclasses import dataclass, field
from typing import List, Optional

import pytest

from repro.experiments import workers
from repro.experiments.parallel import FailedTask, GridTaskError, run_grid
from repro.experiments.workers import fork_available, run_forked

pytestmark = pytest.mark.skipif(not fork_available(),
                                reason="needs fork start method")

N = 4          # workers per run
BAD = 2        # the one that misbehaves
BOUNDED = 20.0  # "promptly": far below the 30 s / 600 s sleeps below


@dataclass
class Report:
    values: Optional[list] = None    # per-index results, when any came back
    failed: str = ""                 # how the door named the failed worker
    reason: str = ""                 # exception / crashed / timeout
    text: str = ""                   # everything the door said about it


@dataclass
class Result:
    """What a cell returns: like ``RunSummary``, it takes the grid's
    ``attempts`` stamp."""

    value: object
    attempts: int = 0


@dataclass
class Cell:
    """Duck-typed ``GridTask``: the grid only calls ``execute`` and
    reads the identity fields."""

    index: int
    before: object
    after: object
    label: str = ""
    scheme_key: str = "fake"
    scheme_factory: object = None
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        self.label = f"cell{self.index}"
        self.params = {"index": self.index}

    def execute(self):
        self.before(self.index)
        return Result(self.after(self.index, self.index))


def _cells(before, after) -> List[Cell]:
    return [Cell(i, before, after) for i in range(N)]


def _values(results) -> list:
    return [None if isinstance(r, FailedTask) else r.value for r in results]


def via_fail_fast(before, after, timeout=None) -> Report:
    assert timeout is None, "a timeout is what selects the other policy"
    try:
        return Report(values=_values(run_grid(_cells(before, after), jobs=N)))
    except GridTaskError as exc:
        return Report(failed=exc.label, text=str(exc),
                      reason="exception" if exc.worker_traceback else "crashed")


def via_supervised(before, after, timeout=None) -> Report:
    results = run_grid(_cells(before, after), jobs=N, retries=0,
                       timeout=timeout)
    report = Report(values=_values(results))
    for failed in results:
        if isinstance(failed, FailedTask):
            # what it says is what the other policy would have raised
            report.failed = failed.error.label
            report.reason, report.text = failed.reason, str(failed.error)
            break
    return report


POLICIES = {"run_grid": via_fail_fast, "supervised": via_supervised}
BAD_NAME = f"cell{BAD}"


@pytest.fixture(params=sorted(POLICIES))
def door(request):
    fn = POLICIES[request.param]

    def call(before=lambda i: None, after=lambda i, value: value, **kwargs):
        started = time.monotonic()
        report = fn(before, after, **kwargs)
        call.elapsed = time.monotonic() - started
        return report

    call.name = request.param
    yield call
    assert multiprocessing.active_children() == []


def test_worker_exception_reaches_parent_with_traceback(door):
    def _raise(index):
        if index == BAD:
            raise ValueError("sabotaged")

    report = door(before=_raise)
    assert report.reason == "exception"
    assert report.failed == BAD_NAME
    assert BAD_NAME in report.text
    assert "ValueError('sabotaged')" in report.text
    assert "_raise" in report.text          # the worker-side traceback


def test_sigkilled_worker_is_seen_by_its_exit(door):
    """The fail-fast policy must kill the dead worker's peers, which
    would otherwise sit out their 30 s."""

    def _die(index):
        if index == BAD:
            os.kill(os.getpid(), signal.SIGKILL)
        elif door.name == "run_grid":
            time.sleep(30.0)

    report = door(before=_die)
    assert report.reason == "crashed"
    assert report.failed == BAD_NAME
    assert "exit -9" in report.text
    assert door.elapsed < BOUNDED
    if door.name == "supervised":
        # not fail-fast: the neighbours' results survive, in place
        assert report.values == [0, 1, None, 3]


def test_timeout_kills_a_hung_worker(door):
    if door.name == "run_grid":
        pytest.skip("passing a timeout is what selects the other policy")

    def _hang(index):
        if index == BAD:
            time.sleep(600.0)

    report = door(before=_hang, timeout=2.0)
    assert report.reason == "timeout"
    assert "no result after" in report.text
    assert door.elapsed < BOUNDED
    assert report.failed == BAD_NAME
    assert report.values == [0, 1, None, 3]


def test_results_come_back_in_index_order(door):
    def _finish_in_reverse(index, value):
        time.sleep(0.1 * (N - index))
        return value

    report = door(after=_finish_in_reverse)
    assert report.failed == ""
    assert report.values == list(range(N))


def test_unpicklable_result_is_a_crash_not_a_hang(door):
    def _poison(index, value):
        return (lambda: value) if index == BAD else value

    report = door(after=_poison)
    assert report.reason == "crashed"
    assert report.failed == BAD_NAME
    assert "exit 70" in report.text
    assert door.elapsed < BOUNDED


# -- what only the supervised policy uses, checked on the primitive --------


def test_retry_relaunches_a_fresh_process_after_backoff(tmp_path,
                                                        monkeypatch):
    marker = tmp_path / "failed-once"

    def flaky():
        if not marker.exists():
            marker.touch()
            raise RuntimeError("first attempt")
        return os.getpid()

    monkeypatch.setattr(workers, "BACKOFF_BASE", 0.2)
    started = time.monotonic()
    flaky_outcome, steady_outcome = run_forked(
        [flaky, os.getpid], slots=2, retries=1)
    assert time.monotonic() - started >= 0.2     # the gate was honoured
    assert flaky_outcome.ok and flaky_outcome.attempts == 2
    assert steady_outcome.ok and steady_outcome.attempts == 1
    assert len({flaky_outcome.value, steady_outcome.value, os.getpid()}) == 3
    assert multiprocessing.active_children() == []


def test_slots_bound_the_processes_in_flight(tmp_path):
    def count_peers(index):
        def fn():
            mine = tmp_path / f"running-{index}"
            mine.touch()
            time.sleep(0.15)
            peers = len(list(tmp_path.glob("running-*")))
            mine.unlink()
            return peers
        return fn

    outcomes = run_forked([count_peers(i) for i in range(6)], slots=2)
    assert all(o.ok for o in outcomes)
    assert max(o.value for o in outcomes) <= 2
    assert multiprocessing.active_children() == []
