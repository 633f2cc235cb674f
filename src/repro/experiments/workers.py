"""The one fork-worker primitive under the grid.

:func:`run_forked` takes a list of zero-argument callables and runs each
in its own forked process — one process per *attempt*, never a reused
interpreter — and hands back one :class:`Outcome` per callable, in
index order.  Its one front door,
:func:`repro.experiments.parallel.run_grid`, sets the policy arguments —
passing ``timeout`` or ``retries`` is what selects the second row — and
names the failed cell:

=======================  =====  =======  =======  =========  =================
``run_grid`` is passed   slots  timeout  retries  fail_fast  a failed cell
=======================  =====  =======  =======  =========  =================
``jobs`` alone           jobs   none     0        yes        ``GridTaskError``
``timeout``/``retries``  jobs*  per try  given*   no         ``FailedTask``
=======================  =====  =======  =======  =========  =================

(*) at least one worker; 2 retries when only ``timeout`` is given.  The
error is raised, the ``FailedTask`` returned at the cell's grid index.

Attempt lifecycle::

    queued --launch--> in flight --result on pipe----------> ok
       ^                   |------exception on pipe--.
       |                   |------exit, pipe empty---+--> failed attempt
       |                   '------deadline: SIGKILL--'         |
       '---- backoff gate, while the retry budget lasts -------+
                                                               |
                          budget spent: failed Outcome <-------'
                          (fail_fast: every peer is SIGKILLed too)

The callables are inherited through the fork, so they may close over
anything (scheme factories, scenario builders, pipe ends); nothing is
pickled on the way in, and only the return value — or ``repr(exc)`` plus
the formatted traceback — is pickled on the way out.  The parent blocks
in :func:`multiprocessing.connection.wait` on every in-flight result
pipe *and* process sentinel, so a worker that dies without reporting
(SIGKILL, OOM, a result that will not pickle) is noticed by its exit,
not by a hang, and nothing polls.

This module imports nothing from the rest of the package: the runner
and the grid sit above it.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import traceback
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

# exit status of a worker whose result (or exception) would not pickle
_UNSENDABLE_EXIT = 70

# retry backoff, seconds: see backoff_delay
BACKOFF_BASE = 0.25
BACKOFF_MAX = 5.0


class WorkerError(RuntimeError):
    """A forked worker failed and the run it belonged to was abandoned.

    ``cause`` is ``repr()`` of the worker's exception, or a sentence
    saying how the process died; ``worker_traceback`` is the worker-side
    traceback text (empty when the process died without raising).
    Subclasses name *which* worker in ``what``.
    """

    def __init__(self, what: str, cause: str, worker_traceback: str) -> None:
        self.cause = cause
        self.worker_traceback = worker_traceback
        message = f"{what}: {cause}"
        if worker_traceback:
            message += f"\n--- worker traceback ---\n{worker_traceback}"
        super().__init__(message)


@dataclass
class Outcome:
    """What became of one callable.

    ``ok`` outcomes carry ``value``.  Failed ones carry ``reason``
    (``"exception"``, ``"crashed"`` or ``"timeout"``), ``cause`` and
    ``worker_traceback`` as :class:`WorkerError` defines them, and the
    last attempt's ``exitcode``.  ``attempts`` counts processes launched
    for this index.
    """

    ok: bool
    value: object = None
    reason: str = ""
    cause: str = ""
    worker_traceback: str = ""
    exitcode: Optional[int] = None
    attempts: int = 0


def fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


def default_jobs() -> int:
    """A sane worker count: the cores this process may actually use.

    ``sched_getaffinity`` respects cgroup/CPU-set limits (container
    quotas, ``taskset``), where ``cpu_count`` reports the whole machine
    and would oversubscribe a pinned process.  Falls back to
    ``cpu_count`` on platforms without affinity support (macOS).
    """
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):
        return max(1, os.cpu_count() or 1)


def worker_count(jobs: Optional[int], n_tasks: int) -> int:
    """The ``jobs`` convention every front door shares: ``None``, ``0``
    or ``1`` is serial, ``-1`` is :func:`default_jobs`, and nobody gets
    more workers than tasks."""
    if jobs is not None and jobs < 0:
        jobs = default_jobs()
    return min(jobs or 1, n_tasks)


def backoff_delay(failures: int) -> float:
    """Seconds a cell waits before its relaunch after ``failures``
    failed attempts: :data:`BACKOFF_BASE`, doubling, capped at
    :data:`BACKOFF_MAX`."""
    if failures <= 0:
        return 0.0
    return min(BACKOFF_MAX, BACKOFF_BASE * (2.0 ** (failures - 1)))


def _worker_main(fn: Callable[[], object], conn) -> None:
    """Child side: report ``(True, value)`` or ``(False, cause, tb)``."""
    try:
        payload = (True, fn())
    except Exception as exc:  # noqa: BLE001 - reported to the parent
        payload = (False, repr(exc), traceback.format_exc())
    try:
        conn.send(payload)
    except Exception:  # noqa: BLE001 - unpicklable: fail loudly instead
        os._exit(_UNSENDABLE_EXIT)
    finally:
        conn.close()


class _Attempt:
    """One in-flight worker process."""

    __slots__ = ("process", "conn", "started")

    def __init__(self, ctx, fn: Callable[[], object]) -> None:
        self.conn, child_conn = ctx.Pipe(duplex=False)
        self.process = ctx.Process(target=_worker_main,
                                   args=(fn, child_conn), daemon=True)
        self.started = time.monotonic()
        self.process.start()
        child_conn.close()  # the child owns its end now

    def reap(self, kill: bool = False) -> Optional[int]:
        if kill:
            self.process.kill()
        self.process.join()
        self.conn.close()
        return self.process.exitcode

    def settle(self, timeout: Optional[float]) -> Optional[Outcome]:
        """``None`` while the worker is still running, else how this
        attempt ended (``attempts`` is the caller's)."""
        # liveness is sampled BEFORE the pipe: whatever a dead worker
        # managed to send is already readable, so "dead and pipe empty"
        # cannot race a result still in flight
        dead = not self.process.is_alive()
        if self.conn.poll():
            try:
                payload = self.conn.recv()
            except (EOFError, OSError):
                dead = True  # write end closed on nothing: it is exiting
            else:
                if payload[0]:
                    return Outcome(True, value=payload[1],
                                   exitcode=self.reap())
                return Outcome(False, reason="exception", cause=payload[1],
                               worker_traceback=payload[2],
                               exitcode=self.reap())
        if dead:
            exitcode = self.reap()
            return Outcome(
                False, reason="crashed", exitcode=exitcode,
                cause=f"worker exited without reporting a result "
                      f"(exit {exitcode}; SIGKILL/OOM leaves -9)")
        elapsed = time.monotonic() - self.started
        if timeout is not None and elapsed > timeout:
            return Outcome(
                False, reason="timeout", exitcode=self.reap(kill=True),
                cause=f"no result after {elapsed:.2f}s (limit "
                      f"{timeout:.2f}s); worker killed")
        return None


def run_forked(
    fns: Sequence[Callable[[], object]],
    *,
    slots: int,
    timeout: Optional[float] = None,
    retries: int = 0,
    fail_fast: bool = False,
) -> List[Optional[Outcome]]:
    """Run every callable in a forked worker; outcomes in index order.

    ``slots`` bounds the processes in flight.  ``timeout`` is wall-clock
    seconds per attempt; a worker past it is SIGKILLed.  A failed
    attempt is relaunched up to ``retries`` times, each after
    :func:`backoff_delay`.  With ``fail_fast`` the first index to run
    out of attempts ends the run: every other in-flight worker is
    SIGKILLed and indices that never finished come back as ``None``.

    Requires the ``fork`` start method (:func:`fork_available`).  No
    worker outlives the call, whichever way it is left.
    """
    # imported here, not at module level: ``import repro`` reaches this
    # module, and connection drags in socket and tempfile (~6 ms) that
    # only a run which actually forks needs
    from multiprocessing.connection import wait

    ctx = multiprocessing.get_context("fork")
    outcomes: List[Optional[Outcome]] = [None] * len(fns)
    failures = [0] * len(fns)
    not_before = [0.0] * len(fns)            # backoff gates
    queued = list(range(len(fns)))           # FIFO launch order
    in_flight: Dict[int, _Attempt] = {}
    try:
        while queued or in_flight:
            now = time.monotonic()
            free = slots - len(in_flight)
            for index in [i for i in queued if not_before[i] <= now][:free]:
                queued.remove(index)
                in_flight[index] = _Attempt(ctx, fns[index])

            # sleep until a worker reports or exits, an attempt's
            # deadline passes, or a backoff gate opens onto a free slot
            wake = [not_before[i] for i in queued] \
                if len(in_flight) < slots else []
            if timeout is not None:
                wake += [a.started + timeout for a in in_flight.values()]
            wait([handle for a in in_flight.values()
                  for handle in (a.conn, a.process.sentinel)],
                 max(0.0, min(wake) - time.monotonic()) if wake else None)

            for index, attempt in list(in_flight.items()):
                outcome = attempt.settle(timeout)
                if outcome is None:
                    continue
                del in_flight[index]
                outcome.attempts = failures[index] + 1
                if not outcome.ok:
                    failures[index] += 1
                    if failures[index] <= retries:
                        queued.append(index)
                        not_before[index] = (time.monotonic()
                                             + backoff_delay(failures[index]))
                        continue
                outcomes[index] = outcome
                if fail_fast and not outcome.ok:
                    return outcomes
    finally:
        for attempt in in_flight.values():
            attempt.reap(kill=True)
    return outcomes
