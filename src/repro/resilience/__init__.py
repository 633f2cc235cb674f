"""repro.resilience — supervised execution for long-horizon runs.

Two layers (see ``docs/robustness.md``):

* **checkpoint/resume** (:mod:`repro.resilience.checkpoint`) — versioned
  snapshots of a running simulation, written periodically from the
  runner's drain-slice loop; ``run(resume=...)`` restores one such that
  the resumed run is bit-identical to a straight-through run;
* **the grid supervisor** (:mod:`repro.resilience.supervisor`) — per-cell
  wall-clock timeouts, crash/hang detection, retry with exponential
  backoff and quarantine of repeatedly-failing cells into structured
  :class:`FailedTask` records, with deterministic partial merges.
"""

from .checkpoint import (
    CHECKPOINT_FORMAT,
    CHECKPOINT_VERSION,
    CheckpointError,
    RunState,
    inspect_checkpoint,
    load_checkpoint,
    save_checkpoint,
)
from .supervisor import (
    FailedTask,
    SupervisedResult,
    backoff_delay,
    supervise_grid,
)

__all__ = [
    "CHECKPOINT_FORMAT",
    "CHECKPOINT_VERSION",
    "CheckpointError",
    "RunState",
    "inspect_checkpoint",
    "load_checkpoint",
    "save_checkpoint",
    "FailedTask",
    "SupervisedResult",
    "backoff_delay",
    "supervise_grid",
]
