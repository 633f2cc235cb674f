"""repro.resilience — checkpoint/resume for long-horizon runs.

:mod:`repro.resilience.checkpoint` writes code-keyed snapshots of a
run's ``RunState`` (defined beside :func:`~repro.experiments.runner.run`,
which builds it) from the runner's drain-slice loop; ``run(resume=...)``
restores one bit-identical to a straight-through run
(``docs/robustness.md``).  Surviving a hung or
killed *worker* is the grid's business: ``run_grid(..., timeout=,
retries=)`` in :mod:`repro.experiments.parallel`.
"""

from .. import _lazy_exports

__all__ = _lazy_exports(__name__, {
    ".checkpoint": ("CHECKPOINT_FORMAT", "CheckpointError",
                    "inspect_checkpoint", "load_checkpoint",
                    "save_checkpoint"),
    "..experiments.runner": ("RunState",),
})
