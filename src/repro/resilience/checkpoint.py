"""Versioned simulator checkpoints: snapshot a run mid-drain, resume later.

A checkpoint is a pickle of the *entire* run graph — the
:class:`~repro.sim.engine.Simulator` (heap, pipelined
:class:`~repro.sim.link.Wire` in-flight deques,
:class:`~repro.sim.engine.EventChain` timers), every transport
endpoint's window/RTO state, the queue ledgers, the fault injectors'
RNG streams, the telemetry trace and the invariant auditor — wrapped in
a :class:`RunState` that also carries the drain loop's own position
(current slice time, watchdog progress signature).  Because the whole
graph is one pickle, shared references survive intact, which is what
makes a resumed run **bit-identical** to a straight-through one (gated
by ``tests/test_resilience.py`` the same way
``Wire.PIPELINED_DEFAULT`` equivalence is gated).

Two deliberate exclusions keep snapshots both lean and loadable:

* the :class:`~repro.experiments.runner.Scenario` **builders** are NOT
  stored (they are arbitrary closures); a checkpoint instead records
  the scalar drain limits it needs (``max_time``, ``event_budget``,
  ``max_rto``) plus the scheme/scenario names for
  compatibility checks at resume time;
* bound-callback caches (``Port._tx_cb``, ``Wire._deliver_cb``,
  ``ControlPipe._fire_cb``) are rebuilt on restore.

File format
-----------

Two consecutive pickles: a small plain-``dict`` header (format tag,
version, scheme/scenario names, sim time, events run) followed by the
:class:`RunState`.  :func:`inspect_checkpoint` reads only the header,
so listing/validating checkpoint files never pays for — or trusts —
the full graph.  Writes are atomic (temp file + ``os.replace``): a
run SIGKILLed mid-write leaves the previous checkpoint intact.

Versioning rules: ``CHECKPOINT_VERSION`` bumps whenever the snapshot
graph changes shape (new engine fields, new transport state).  A
loader refuses mismatched versions with :class:`CheckpointError` —
resuming across versions would deserialize silently-wrong state.

Trust model: checkpoints are pickles.  Load only files you (or your
own runs) wrote.
"""

from __future__ import annotations

import io
import os
import pickle
from dataclasses import dataclass, field
from typing import Any, Optional

CHECKPOINT_FORMAT = "repro-checkpoint"
CHECKPOINT_VERSION = 18


class CheckpointError(RuntimeError):
    """A checkpoint file is missing, malformed, or incompatible."""


@dataclass
class RunState:
    """The picklable snapshot of one run, taken at a drain-slice boundary.

    Everything :func:`repro.experiments.runner.run` needs to finish the
    run lives here: the live object graph (``topo`` owns the simulator
    and fabric; ``ctx``/``flows``/``faults``/``telemetry``/``auditor``
    share references into it) plus the drain loop's scalar state.
    """

    # identity (checked against the caller's scheme/scenario at resume)
    scheme_name: str = ""
    scenario_name: str = ""

    # the live run graph — one shared-reference pickle
    topo: Any = None
    ctx: Any = None
    flows: list = field(default_factory=list)
    faults: Any = None
    telemetry: Any = None
    auditor: Any = None
    # the HybridController when the run uses the flow-level fast path
    # (None otherwise); shares references into the sim graph, so the
    # abstract set and its armed epoch event pickle consistently
    hybrid: Any = None

    # the run's flow target: len(flows) for a materialized workload,
    # the FlowStream's declared total for a streamed one (``flows``
    # then only holds the prefix pulled so far — the un-consumed stream
    # itself travels inside the sim graph via the lazy start chain)
    total_flows: int = 0

    # drain limits copied off the Scenario (builders are not picklable)
    max_time: float = 10.0
    event_budget: Optional[int] = None
    max_rto: float = 0.25

    # drain-loop position
    t: float = 0.0
    last_signature: Optional[tuple] = None
    last_progress_t: float = 0.0
    last_checkpoint_t: float = 0.0
    checkpoints_taken: int = 0

    @property
    def sim(self):
        return self.topo.sim

    def header(self) -> dict:
        """The plain-data header written ahead of the state pickle."""
        return {
            "format": CHECKPOINT_FORMAT,
            "version": CHECKPOINT_VERSION,
            "scheme": self.scheme_name,
            "scenario": self.scenario_name,
            "sim_time": self.sim.now,
            "events_run": self.sim.events_run,
            "completed": len(self.ctx.completed),
            "n_flows": self.total_flows,
            "checkpoints_taken": self.checkpoints_taken,
        }


def save_checkpoint(state: RunState, path) -> dict:
    """Atomically write ``state`` to ``path``; returns the header dict.

    The write goes to a sibling temp file first and is published with
    ``os.replace``, so a crash mid-write can never corrupt an existing
    checkpoint — the resume path always sees either the old snapshot or
    the new one, complete.
    """
    path = os.fspath(path)
    header = state.header()
    buf = io.BytesIO()
    pickle.dump(header, buf, protocol=pickle.HIGHEST_PROTOCOL)
    pickle.dump(state, buf, protocol=pickle.HIGHEST_PROTOCOL)
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as fh:
        fh.write(buf.getvalue())
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    return header


def inspect_checkpoint(path) -> dict:
    """Read and validate only a checkpoint's header (cheap, graph-free)."""
    with open(path, "rb") as fh:
        try:
            header = pickle.load(fh)
        except Exception as exc:
            raise CheckpointError(f"{path}: not a checkpoint file: {exc}") from exc
    _validate_header(header, path)
    return header


def load_checkpoint(path) -> RunState:
    """Load a full :class:`RunState`; raises :class:`CheckpointError` on
    a missing file, a foreign format, or a version mismatch."""
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise CheckpointError(f"cannot open checkpoint {path}: {exc}") from exc
    with fh:
        try:
            header = pickle.load(fh)
        except Exception as exc:
            raise CheckpointError(f"{path}: not a checkpoint file: {exc}") from exc
        _validate_header(header, path)
        try:
            state = pickle.load(fh)
        except Exception as exc:
            raise CheckpointError(
                f"{path}: checkpoint body failed to deserialize: {exc}") from exc
    if not isinstance(state, RunState):
        raise CheckpointError(
            f"{path}: checkpoint body is {type(state).__name__}, "
            f"expected RunState")
    return state


def _validate_header(header: object, path) -> None:
    if not isinstance(header, dict) or header.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(f"{path}: not a {CHECKPOINT_FORMAT} file")
    version = header.get("version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path}: checkpoint version {version} is incompatible with "
            f"this build (expected {CHECKPOINT_VERSION}); re-run from "
            f"scratch instead of resuming")
