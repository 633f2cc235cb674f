"""Parameter-sweep helpers: run a scheme grid over scenario variants.

The per-figure drivers in :mod:`repro.experiments.figures` hard-code the
paper's sweeps; this module provides the generic machinery for ad-hoc
exploration (load sweeps, buffer sweeps, scheme grids) plus JSON
import/export so results can be archived and diffed across code
versions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Union

from ..metrics.fct import FctStats
from ..resilience.supervisor import supervise_grid
from ..transport.base import Scheme
from .parallel import GridTask, RunSummary, run_grid, scheme_grid
from .runner import Scenario


@dataclass
class SweepPoint:
    """One (scheme, variant) cell of a sweep."""

    scheme: str
    variant: Dict[str, object]
    stats: FctStats
    completed: int
    n_flows: int

    def row(self) -> dict:
        row = {"scheme": self.scheme}
        row.update(self.variant)
        row.update({
            "overall_avg_ms": self.stats.overall_avg * 1e3,
            "small_avg_ms": self.stats.small_avg * 1e3,
            "small_p99_ms": self.stats.small_p99 * 1e3,
            "large_avg_ms": self.stats.large_avg * 1e3,
            "completed": f"{self.completed}/{self.n_flows}",
        })
        return row


def _points(tasks: Sequence[GridTask],
            summaries: Sequence[Optional[RunSummary]]) -> List[SweepPoint]:
    """One point per cell that produced a summary, in grid order."""
    return [
        SweepPoint(
            scheme=summary.scheme,
            variant=dict(task.params),
            stats=summary.stats,
            completed=summary.completed,
            n_flows=summary.n_flows,
        )
        for task, summary in zip(tasks, summaries)
        if summary is not None
    ]


def sweep(
    scheme_factories: Dict[str, Callable[[], Scheme]],
    scenario_factory: Callable[..., Scenario],
    variants: Sequence[Dict[str, object]],
    *,
    progress: Optional[Callable[[str], None]] = None,
    jobs: Optional[int] = None,
) -> List[SweepPoint]:
    """Run every scheme on every scenario variant.

    ``scenario_factory`` is called with each variant dict's items as
    keyword arguments and must return a fresh :class:`Scenario`.

    ``jobs`` fans the grid across that many worker processes
    (``-1`` = one per core).  Every cell builds its own fresh scenario
    and results are merged in grid order, so the returned points are
    bit-identical to a serial run — see :mod:`repro.experiments.parallel`
    for the determinism contract.

    For large sweeps pass ``stream=True`` in each variant (every
    builder in :mod:`repro.experiments.scenarios` accepts it): each
    worker then pulls flows lazily from a constant-memory
    :class:`~repro.workloads.FlowStream` built in-process instead of
    materializing the whole workload list up front.  The results are
    bit-identical either way.
    """
    tasks = scheme_grid(scheme_factories, scenario_factory, variants)
    return _points(tasks, run_grid(tasks, jobs=jobs, progress=progress))


def supervised_sweep(
    scheme_factories: Dict[str, Callable[[], Scheme]],
    scenario_factory: Callable[..., Scenario],
    variants: Sequence[Dict[str, object]],
    *,
    jobs: Optional[int] = None,
    task_timeout: Optional[float] = None,
    retries: int = 2,
    progress: Optional[Callable[[str], None]] = None,
):
    """:func:`sweep` under the :mod:`repro.resilience` supervisor.

    Same grid, same deterministic order — but a hung, crashed or
    repeatedly-failing cell is retried with backoff and ultimately
    quarantined instead of killing the whole sweep.  Returns
    ``(points, failed)``: the :class:`SweepPoint` list for every cell
    that completed (grid order preserved) and the
    :class:`~repro.resilience.FailedTask` records for those that did
    not.  Because each retry replays the identical simulation, the
    points a disturbed sweep produces are bit-identical to an
    undisturbed sweep's — see ``docs/robustness.md``.
    """
    tasks = scheme_grid(scheme_factories, scenario_factory, variants)
    outcome = supervise_grid(tasks, jobs=jobs, task_timeout=task_timeout,
                             retries=retries, progress=progress)
    return _points(tasks, outcome.summaries), outcome.failed


def load_sweep_variants(loads: Iterable[float]) -> List[Dict[str, object]]:
    """The most common sweep: one variant per network load."""
    return [{"load": load} for load in loads]


# ---------------------------------------------------------------------------
# result archival
# ---------------------------------------------------------------------------


def rows_to_json(rows: List[dict], path: Union[str, Path],
                 *, meta: Optional[dict] = None) -> None:
    """Save printable rows (plus optional metadata) as JSON."""
    payload = {"meta": meta or {}, "rows": rows}
    Path(path).write_text(json.dumps(payload, indent=1, default=str))


def rows_from_json(path: Union[str, Path]) -> List[dict]:
    """Load rows previously saved with :func:`rows_to_json`."""
    payload = json.loads(Path(path).read_text())
    return payload["rows"]


def points_to_json(points: List[SweepPoint], path: Union[str, Path],
                   *, meta: Optional[dict] = None) -> None:
    rows_to_json([p.row() for p in points], path, meta=meta)
