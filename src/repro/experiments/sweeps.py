"""Parameter-sweep helpers: run a scheme grid over scenario variants.

:func:`sweep` is the whole experiment pipeline in one call —
``scheme_grid -> run_grid`` — and returns the grid's
:class:`~repro.experiments.parallel.RunSummary` cells, whose ``row()``
is the printable FCT row.  The per-figure drivers in
:mod:`repro.experiments.figures` are calls of it with the paper's
schemes and scenarios; ad-hoc exploration (load sweeps, buffer sweeps,
scheme grids) calls it directly.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence

from ..transport.base import Scheme
from .parallel import RunSummary, run_grid, scheme_grid
from .runner import Scenario


def sweep(
    scheme_factories: Dict[str, Callable[[], Scheme]],
    scenario_factory: Callable[..., Scenario],
    variants: Sequence[Dict[str, object]],
    *,
    progress: Optional[Callable[[str], None]] = None,
    jobs: Optional[int] = None,
) -> List[RunSummary]:
    """Run every scheme on every scenario variant.

    ``scenario_factory`` is called with each variant dict's items as
    keyword arguments and must return a fresh :class:`Scenario`.

    ``jobs`` fans the grid across that many worker processes
    (``-1`` = one per core).  Every cell builds its own fresh scenario
    and results are merged in grid order, so the returned summaries are
    bit-identical to a serial run — see :mod:`repro.experiments.parallel`
    for the determinism contract.  ``run_grid(scheme_grid(...),
    timeout=, retries=)`` runs the same grid with deadlines and retries.

    For large sweeps pass ``stream=True`` in each variant (every
    builder in :mod:`repro.experiments.scenarios` accepts it): each
    worker then pulls flows lazily from its constant-memory
    :class:`~repro.workloads.FlowStream` instead of draining that
    stream into a list up front.  The results are bit-identical either
    way.
    """
    tasks = scheme_grid(scheme_factories, scenario_factory, variants)
    return run_grid(tasks, jobs=jobs, progress=progress)


def load_sweep_variants(loads: Iterable[float]) -> List[Dict[str, object]]:
    """The most common sweep: one variant per network load."""
    return [{"load": load} for load in loads]
