"""Supervised grid execution: timeouts, retry with backoff, quarantine.

:func:`repro.experiments.parallel.run_grid` aborts on the first failed
cell.  :func:`supervise_grid` runs the same
:class:`~repro.experiments.parallel.GridTask` cells through the same
primitive, :func:`repro.experiments.workers.run_forked` — one forked
process per attempt, so a dead worker cannot poison its neighbours —
with the policy turned the other way:

* a per-cell **wall-clock timeout** — a hung worker is killed and the
  cell retried;
* **crash detection** — a worker that dies without reporting (SIGKILL,
  OOM-kill, segfault) is detected by process exit, not by a pipe
  hang;
* **retry with exponential backoff** — each failed attempt waits
  ``backoff_base * 2**(failures-1)`` seconds (capped at
  ``backoff_max``) before relaunching, up to ``retries`` retries;
* **quarantine** — a cell that exhausts its retry budget becomes a
  structured :class:`FailedTask` (scheme, params, attempts, reason,
  worker traceback) instead of aborting the sweep;
* **deterministic partial merges** — completed cells land at their
  grid index, so the merge order of whatever completed is identical
  to an undisturbed sweep's.

Determinism note: every cell builds a fresh scenario from its own
seeds, so a retried attempt replays the identical simulation — retry
changes *when* a summary arrives, never *what* it contains.  That is
what lets the chaos benchmark assert a SIGKILLed sweep merges
bit-identically to an undisturbed one.

A grid with a ``task_timeout`` always runs in forked workers, however
few — one worker is enough to enforce a deadline.  Without one, a
serial grid (``jobs`` of ``None``/``0``/``1``) runs in-process with
retry-on-exception semantics, as does any grid on a platform without
``fork`` (timeout and crash recovery need real processes and are
unavailable there).
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence

from ..experiments import workers
from ..experiments.workers import Outcome, backoff_delay

if TYPE_CHECKING:  # the grid types sit above this module (runner cycle)
    from ..experiments.parallel import GridTask, RunSummary


@dataclass
class FailedTask:
    """A quarantined grid cell: every retry failed.

    Carries everything a post-mortem needs — which cell (grid index,
    label, scheme, params), how it died (``reason`` is ``"timeout"``,
    ``"crashed"`` or ``"exception"``), the worker's traceback when one
    was reported, and the exit code when the process died.
    """

    index: int
    label: str
    scheme: str
    params: Dict[str, object] = field(default_factory=dict)
    attempts: int = 0
    reason: str = ""
    detail: str = ""
    exitcode: Optional[int] = None
    elapsed: float = 0.0

    def describe(self) -> str:
        parts = [f"cell {self.index} ({self.label or self.scheme})",
                 f"{self.attempts} attempt(s)", self.reason]
        if self.exitcode is not None:
            parts.append(f"exit {self.exitcode}")
        return ": ".join((", ".join(parts), self.detail.strip().splitlines()[-1]
                          if self.detail else "no detail"))


@dataclass
class SupervisedResult:
    """Outcome of a supervised grid: summaries in grid order, failures
    quarantined.

    ``summaries[i]`` is the i-th task's :class:`RunSummary`, or ``None``
    when that cell was quarantined (its :class:`FailedTask` is in
    ``failed``, also ordered by grid index).  ``attempts_total`` counts
    every process launched, so ``attempts_total - len(tasks)`` is the
    number of retries the sweep needed.
    """

    summaries: List[Optional[RunSummary]] = field(default_factory=list)
    failed: List[FailedTask] = field(default_factory=list)
    attempts_total: int = 0

    @property
    def ok(self) -> bool:
        return not self.failed

    def completed(self) -> List[RunSummary]:
        """The summaries that exist, still in deterministic grid order."""
        return [s for s in self.summaries if s is not None]


def supervise_grid(
    tasks: Sequence[GridTask],
    *,
    jobs: Optional[int] = None,
    task_timeout: Optional[float] = None,
    retries: int = 2,
    backoff_base: float = 0.25,
    backoff_max: float = 5.0,
    progress: Optional[Callable[[str], None]] = None,
) -> SupervisedResult:
    """Execute every task under supervision; never raises for a cell
    failure.

    ``jobs`` follows :func:`~repro.experiments.parallel.run_grid`
    semantics (``None``/``0``/``1`` serial, ``-1`` one per core).
    ``task_timeout`` is wall-clock seconds per attempt (``None`` = no
    limit).  ``retries`` is the per-cell retry budget *after* the first
    attempt.  ``progress`` fires once per task in grid order after the
    sweep settles, like ``run_grid``'s parallel path.

    A ``task_timeout`` forces forked workers even for a serial grid (a
    deadline needs a killable process).  Otherwise serial grids — and
    every grid on a platform without ``fork`` — run in-process:
    exceptions are retried with the same backoff and budget, but
    timeout/crash recovery are unavailable.
    """
    tasks = list(tasks)
    n_workers = workers.worker_count(jobs, len(tasks))
    if not workers.fork_available() \
            or (n_workers <= 1 and task_timeout is None):
        outcomes = [_attempt_in_process(task, retries, backoff_base,
                                        backoff_max) for task in tasks]
    else:
        outcomes = workers.run_forked(
            [task.execute for task in tasks], slots=max(1, n_workers),
            timeout=task_timeout, retries=retries,
            backoff_base=backoff_base, backoff_max=backoff_max)

    result = SupervisedResult(
        summaries=[outcome.value for outcome in outcomes],
        attempts_total=sum(outcome.attempts for outcome in outcomes))
    for index, (task, outcome) in enumerate(zip(tasks, outcomes)):
        if not outcome.ok:
            result.failed.append(FailedTask(
                index=index, label=task.label, scheme=task.scheme_key,
                params=dict(task.params), attempts=outcome.attempts,
                reason=outcome.reason, detail=_detail(task, outcome),
                exitcode=outcome.exitcode, elapsed=outcome.elapsed))
    if progress is not None:
        for task in tasks:
            progress(task.label)
    return result


def _detail(task: "GridTask", outcome: Outcome) -> str:
    if outcome.reason == "exception":
        return (f"task {task.label or task.scheme_key} params={task.params} "
                f"raised {outcome.cause}\n{outcome.worker_traceback}")
    if outcome.reason == "timeout":
        return f"attempt exceeded task_timeout: {outcome.cause}"
    return outcome.cause


def _attempt_in_process(task: "GridTask", retries: int, backoff_base: float,
                        backoff_max: float) -> Outcome:
    """The no-fork stand-in for one index of ``run_forked``: same retry
    budget and backoff, but only exceptions can be survived."""
    failures = 0
    started = time.monotonic()
    while True:
        try:
            return Outcome(True, value=task.execute(), attempts=failures + 1,
                           elapsed=time.monotonic() - started)
        except Exception as exc:  # noqa: BLE001 - quarantine, don't abort
            failures += 1
            if failures > retries:
                return Outcome(
                    False, reason="exception", cause=repr(exc),
                    worker_traceback=traceback.format_exc(),
                    attempts=failures, elapsed=time.monotonic() - started)
            time.sleep(backoff_delay(failures, backoff_base, backoff_max))
