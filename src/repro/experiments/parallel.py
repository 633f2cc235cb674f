"""Parallel experiment execution: fan a run grid across worker processes.

Every sweep and multi-seed benchmark in this repo is embarrassingly
parallel — each (scheme, variant, seed) cell builds its own topology,
its own simulator and its own seeded RNGs, so cells share *nothing*.
This module exploits that: :func:`run_grid` executes a list of
:class:`GridTask` cells either serially or in forked worker processes,
and returns one slim, picklable :class:`RunSummary` per cell in the
exact order the tasks were given.

Determinism contract
--------------------

Parallel output is **bit-identical** to serial output:

* each worker executes the same ``run(scheme_factory(), scenario)`` call
  the serial path would, on a freshly built scenario and in a process
  forked from the pristine parent for that one cell, so the packet-level
  behaviour of a cell cannot depend on its neighbours;
* :func:`~repro.experiments.workers.run_forked` returns outcomes by
  task index — the merged list is in deterministic grid order no matter
  which worker finished first.

Spawning, collecting and crash detection live in
:mod:`repro.experiments.workers`; this module only picks one of the two
policies tabled there.  ``run_grid(tasks, jobs=N)`` has no retries and
no timeout, and the first failed cell aborts the grid as a
:class:`GridTaskError`; passing ``timeout`` or ``retries`` supervises it
— deadlines, relaunches, a :class:`FailedTask` in place of a cell that
spent its budget — and since a relaunch replays the identical seeded
simulation, retry changes *when* a summary arrives, never *what* it
contains.  Tasks close over scheme factories, scenario builders and
fault plans — none of them picklable in general — and reach the worker
through the fork; only the :class:`RunSummary` crosses a pipe.  On
platforms without ``fork`` the grid degrades to serial execution, which
is always correct.

:class:`RunSummary` vs :class:`~repro.experiments.runner.RunResult`:
the full result drags the live :class:`~repro.sim.network.Network`,
:class:`~repro.sim.topology.Topology` and every endpoint along — none of
which survive pickling (and shipping a few hundred megabytes of
simulator state across a pipe would erase the speedup).  The summary
keeps what every sweep consumer actually reads: FCT statistics, the
per-flow :class:`~repro.metrics.flowtable.FlowTable` and run health
(completion counts and the event total included).
"""

from __future__ import annotations

import math
import multiprocessing
import traceback
import warnings
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Callable, Dict, List, Optional, Sequence,
                    Union)

from ..metrics.fct import FctStats
from ..metrics.flowtable import FlowTable
from ..transport.base import Scheme
from . import workers
from .runner import RunHealth, RunResult, Scenario, run
from .workers import Outcome, WorkerError

if TYPE_CHECKING:
    from ..obs.telemetry import TelemetrySummary
    from ..validate.report import ValidationReport


@dataclass
class RunSummary:
    """Slim, picklable digest of one run — what sweeps consume.

    Carries only plain data (dataclasses of numbers, strings and small
    containers), so it crosses process boundaries cheaply and can be
    archived as JSON.  ``telemetry`` is the equally slim
    :class:`~repro.obs.TelemetrySummary` rollup when the cell ran
    observed (the full event trace stays in the worker, which writes it
    to the task's ``trace_out``; only the digest crosses the pipe,
    merged in grid order exactly like the rest).
    """

    scheme: str
    scenario: str
    params: Dict[str, object]
    stats: FctStats
    table: FlowTable
    health: RunHealth
    telemetry: Optional[TelemetrySummary] = None
    # The invariant auditor's report when the cell ran validated; plain
    # picklable data like everything else here.
    validation: Optional[ValidationReport] = None
    # worker processes the cell took (> 1: a supervised grid relaunched it)
    attempts: int = field(default=1, compare=False)

    @classmethod
    def from_result(cls, result: RunResult,
                    params: Optional[Dict[str, object]] = None
                    ) -> "RunSummary":
        return cls(
            scheme=result.scheme_name,
            scenario=result.scenario_name,
            params=dict(params or {}),
            stats=result.stats,
            table=result.table,
            health=result.health,
            telemetry=(result.telemetry.summary()
                       if result.telemetry is not None else None),
            validation=result.validation,
        )

    def row(self) -> dict:
        """The cell as one printable table row: scheme, the variant's
        params, then :meth:`FctStats.row` (milliseconds, ``"n=0"`` for
        an empty bucket) — the one FCT row every table in the repo
        prints."""
        return {"scheme": self.scheme, **self.params, **self.stats.row()}


@dataclass
class GridTask:
    """One cell of a run grid: build a fresh scenario, run one scheme.

    ``scenario_factory`` is called with ``params`` as keyword arguments
    inside the worker, so the (unpicklable) topology/flows/faults are
    built after the fork, exactly as the serial path would build them.
    The cell ships only the factory + params, and the worker draws its
    own flows from its own :class:`~repro.workloads.FlowStream` (lazily
    for a ``stream=True`` scenario) — no flow list ever crosses the
    pipe.
    """

    scheme_factory: Callable[[], Scheme]
    scenario_factory: Callable[..., Scenario]
    params: Dict[str, object] = field(default_factory=dict)
    label: str = ""
    # Registry key for the scheme (sweeps name cells by their factory
    # key, which can differ from ``Scheme.name``); empty = use the
    # scheme's own name.
    scheme_key: str = ""
    # Run the cell with repro.obs telemetry; only the TelemetrySummary
    # digest comes back (the event trace is not picklable at scale).
    observe: bool = False
    # Run the cell with the repro.validate auditor: False (off), True
    # (audit mode) or "strict".  The picklable ValidationReport comes
    # back on the summary; in strict mode a broken law raises
    # InvariantViolation inside the worker and surfaces as GridTaskError.
    validate: object = False
    # Files the cell writes where it runs (forked worker or in-process):
    # its event trace as JSONL (the cell then runs observed), and a
    # resumable snapshot every ``checkpoint_every`` simulated seconds —
    # see run().  A supervised retry starts over and overwrites both.
    trace_out: Optional[str] = None
    checkpoint_path: Optional[str] = None
    checkpoint_every: Optional[float] = None

    def execute(self) -> RunSummary:
        scenario = self.scenario_factory(**self.params)
        result = run(self.scheme_factory(), scenario,
                     observe=self.observe or self.trace_out is not None,
                     validate=self.validate,
                     checkpoint_every=self.checkpoint_every,
                     checkpoint_path=self.checkpoint_path)
        if self.trace_out is not None:
            result.telemetry.export_jsonl(self.trace_out)
        summary = RunSummary.from_result(result, self.params)
        if self.scheme_key:
            summary.scheme = self.scheme_key
        return summary


class GridTaskError(WorkerError):
    """A worker failed while executing a grid cell.

    Carries the failing cell's identity (``label``, ``scheme``,
    ``params``) on top of :class:`~repro.experiments.workers.WorkerError`'s
    ``cause`` and ``worker_traceback``, so the parent's stack trace names
    the exact (scheme, seed, params) cell of a 200-cell sweep and shows
    where in the worker it blew up.  Pickles via :meth:`__reduce__`.
    """

    def __init__(self, label: str, scheme: str, params: Dict[str, object],
                 cause: str, worker_traceback: str) -> None:
        self.label = label
        self.scheme = scheme
        self.params = params
        super().__init__(
            f"grid cell {label or scheme!r} (scheme={scheme!r}, "
            f"params={params!r}) failed in worker", cause, worker_traceback)

    def __reduce__(self):
        return (type(self), (self.label, self.scheme, self.params,
                             self.cause, self.worker_traceback))


@dataclass
class FailedTask:
    """A grid cell that spent every attempt it had; a supervised
    :func:`run_grid` returns it in the cell's place.

    ``error`` is the :class:`GridTaskError` the unsupervised grid would
    have raised (the cell's identity, ``cause``, ``worker_traceback``);
    ``reason`` is ``"exception"``, ``"crashed"`` or ``"timeout"``.
    """

    index: int
    error: GridTaskError
    reason: str
    exitcode: Optional[int]
    attempts: int

    def describe(self) -> str:
        """The cell, its attempts, the reason, the last line it said."""
        error = self.error
        parts = [f"cell {self.index} ({error.label or error.scheme})",
                 f"{self.attempts} attempt(s)", self.reason]
        if self.reason != "exception":  # a worker that reported exited 0
            parts.append(f"exit {self.exitcode}")
        said = error.worker_traceback.strip() or error.cause
        return f"{', '.join(parts)}: {said.splitlines()[-1]}"


def _failed(index: int, task: GridTask, outcome: Outcome) -> FailedTask:
    scheme = task.scheme_key or getattr(
        task.scheme_factory, "__name__", "<factory>")
    error = GridTaskError(task.label, scheme, dict(task.params),
                          outcome.cause, outcome.worker_traceback)
    return FailedTask(index, error, outcome.reason, outcome.exitcode,
                      outcome.attempts)


# run_grid warns at most once per process about a no-fork degrade; the
# grid is called once per sweep row and repeating the warning per row
# would drown the table
_warned_no_fork = False


def _warn_no_fork() -> None:
    global _warned_no_fork
    if _warned_no_fork:
        return
    _warned_no_fork = True
    warnings.warn(
        f"forked grid requested but the {multiprocessing.get_start_method()!r} "
        "start method cannot share task closures (fork unavailable); "
        "running serially in-process",
        RuntimeWarning, stacklevel=3)


def check_supervision(timeout: Optional[float],
                      retries: Optional[int]) -> None:
    """:func:`run_grid`'s supervision rule: a ``timeout`` is finite and
    ``> 0`` (a NaN deadline is never enforced, an infinite one
    overflows the wait) and ``retries`` is ``>= 0``; anything else
    raises :class:`ValueError`."""
    if timeout is not None and not 0 < timeout < math.inf:
        raise ValueError(f"timeout must be finite and > 0, got {timeout!r}")
    if retries is not None and retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries!r}")


def run_grid(
    tasks: Sequence[GridTask],
    *,
    jobs: Optional[int] = None,
    timeout: Optional[float] = None,
    retries: Optional[int] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> List[Union[RunSummary, FailedTask]]:
    """Execute every task; return one result per task, in task order.

    ``jobs`` — worker processes.  ``None``, ``0`` or ``1`` runs serially
    in-process; ``-1`` means
    :func:`~repro.experiments.workers.default_jobs`.  ``progress`` is
    called with each task's label as its result is merged (serial: as it
    runs), so output ordering is identical on both paths.

    Passing ``timeout`` (wall-clock seconds per attempt) or ``retries``
    (relaunches after the first attempt; 2 when only ``timeout`` is
    given) supervises the grid: cells run in forked workers even at one
    job, and a cell that fails every attempt is a :class:`FailedTask` in
    the returned list instead of a raised :class:`GridTaskError`.
    Without ``fork`` a supervised cell gets one in-process attempt (no
    deadline can be enforced, and re-running a seeded cell in the same
    interpreter could only replay the same exception).
    """
    check_supervision(timeout, retries)
    tasks = list(tasks)
    supervised = timeout is not None or retries is not None
    n_workers = workers.worker_count(jobs, len(tasks))
    forked = supervised or n_workers > 1
    if forked and not workers.fork_available():
        _warn_no_fork()
        forked = False
    if not forked:
        results = []
        for index, task in enumerate(tasks):
            if progress is not None:
                progress(task.label)
            try:
                results.append(task.execute())
            except Exception as exc:  # noqa: BLE001 - reported in place
                if not supervised:
                    raise
                results.append(_failed(index, task, Outcome(
                    False, reason="exception", cause=repr(exc),
                    worker_traceback=traceback.format_exc(), attempts=1)))
        return results

    if retries is None:
        retries = 2 if supervised else 0
    outcomes = workers.run_forked(
        [task.execute for task in tasks], slots=n_workers,
        timeout=timeout, retries=retries, fail_fast=not supervised)
    results = []
    for index, (task, outcome) in enumerate(zip(tasks, outcomes)):
        if outcome is None:
            continue  # killed unfinished by the fail-fast raise below
        if outcome.ok:
            outcome.value.attempts = outcome.attempts
            results.append(outcome.value)
            continue
        failed = _failed(index, task, outcome)
        if not supervised:
            raise failed.error
        results.append(failed)
    if progress is not None:
        for task in tasks:
            progress(task.label)
    return results


def scheme_grid(
    scheme_factories: Dict[str, Callable[[], Scheme]],
    scenario_factory: Callable[..., Scenario],
    variants: Sequence[Dict[str, object]],
    **task_fields,
) -> List[GridTask]:
    """The canonical grid: variants outer, schemes inner — the one way
    the repo spells "run these schemes on this scenario".  Figure
    drivers, examples, benches, the CLI ``run`` command and the
    validation matrix all build their cells here and execute them with
    ``run_grid(scheme_grid(schemes, factory, variants), jobs=...)``.

    ``scenario_factory`` is called with each variant's items as keyword
    arguments (``[{}]`` is one fixed scenario, and its cells are
    labelled by scheme alone).  ``task_fields`` (``observe``,
    ``validate``, ...) are set on every cell.
    """
    tasks: List[GridTask] = []
    for variant in variants:
        for name, factory in scheme_factories.items():
            tasks.append(GridTask(
                scheme_factory=factory,
                scenario_factory=scenario_factory,
                params=dict(variant),
                label=f"{name} @ {variant}" if variant else name,
                scheme_key=name,
                **task_fields,
            ))
    return tasks
