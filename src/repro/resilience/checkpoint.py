"""Simulator checkpoints: snapshot a run mid-drain, resume later.

A checkpoint is a pickle of the *entire* run graph — the
:class:`~repro.sim.engine.Simulator` (heap, pipelined
:class:`~repro.sim.link.Wire` in-flight deques,
:class:`~repro.sim.engine.EventChain` timers), every transport
endpoint's window/RTO state, the queue ledgers, the fault injectors'
RNG streams, the telemetry trace and the invariant auditor — wrapped in
a :class:`~repro.experiments.runner.RunState` that also carries the
drain loop's own position (current slice time, watchdog progress
signature).  Because the whole
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
  ``ControlPipe._deliver_cb``) are rebuilt on restore.

File format
-----------

Two consecutive pickles: a small plain-``dict`` header (format tag,
code table, scheme/scenario names, sim time, events run) followed by the
``RunState``.  :func:`inspect_checkpoint` reads only the header,
so listing/validating checkpoint files never pays for — or trusts —
the full graph.  Writes are atomic (temp file + ``os.replace``): a
run SIGKILLed mid-write leaves the previous checkpoint intact.

Code identity: the header's ``code`` table maps every ``*.py`` module
of the ``repro`` package to a prefix of its source's sha256.  A loader
refuses a table that differs from its own (and a header without one)
with :class:`CheckpointError`: a resumed run is bit-identical only to a
straight run of the *same* code, so any source edit — a changed
snapshot shape or a changed behaviour — makes old snapshots stale.

Trust model: checkpoints are pickles.  Load only files you (or your
own runs) wrote.
"""

from __future__ import annotations

import functools
import io
import os
import pickle
from pathlib import Path
from typing import Tuple

from ..experiments.runner import RunState

CHECKPOINT_FORMAT = "repro-checkpoint"


@functools.cache
def _code_table() -> Tuple[Tuple[str, str], ...]:
    """``(module path, sha256 prefix)`` for every module of the package.

    Hashed on the first save or load, never at import: a run that takes
    no checkpoint pays nothing, not even loading ``hashlib``."""
    import hashlib
    root = Path(__file__).resolve().parent.parent
    return tuple(
        (path.relative_to(root).as_posix(),
         hashlib.sha256(path.read_bytes()).hexdigest()[:16])
        for path in sorted(root.rglob("*.py")))


class CheckpointError(RuntimeError):
    """A checkpoint file is missing, malformed, or incompatible."""


def checkpoint_header(state: RunState) -> dict:
    """The plain-data header written ahead of ``state``'s pickle."""
    return {
        "format": CHECKPOINT_FORMAT,
        "code": dict(_code_table()),
        "scheme": state.scheme_name,
        "scenario": state.scenario_name,
        "sim_time": state.sim.now,
        "events_run": state.sim.events_run,
        "completed": len(state.ctx.completed),
        "n_flows": state.total_flows,
        "checkpoints_taken": state.checkpoints_taken,
    }


def save_checkpoint(state: RunState, path) -> dict:
    """Atomically write ``state`` to ``path``; returns the header dict.

    The write goes to a sibling temp file first and is published with
    ``os.replace``, so a crash mid-write can never corrupt an existing
    checkpoint — the resume path always sees either the old snapshot or
    the new one, complete.
    """
    path = os.fspath(path)
    header = checkpoint_header(state)
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
    """Load a full ``RunState``; raises :class:`CheckpointError` on
    a missing file, a foreign format, or a checkpoint of other code."""
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
    theirs = header.get("code")
    if not isinstance(theirs, dict):
        raise CheckpointError(
            f"{path}: checkpoint carries no code table (written by an "
            f"older build); re-run from scratch instead of resuming")
    ours = dict(_code_table())
    changed = sorted(name for name in ours.keys() | theirs.keys()
                     if ours.get(name) != theirs.get(name))
    if changed:
        named = ", ".join(changed[:3]) + (", ..." if len(changed) > 3 else "")
        raise CheckpointError(
            f"{path}: checkpoint was written by other code (changed: "
            f"{named}); re-run from scratch instead of resuming")
