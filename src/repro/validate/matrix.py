"""The validation matrix: every scheme on every canonical topology.

``python -m repro.validate.matrix`` runs each registered transport
scheme over the star, dumbbell and (scaled) leaf-spine fabrics twice —
once bare, once with the :class:`~repro.validate.RunAuditor` attached —
and demands two things of every cell:

1. **zero invariant violations** in audit mode, and
2. **bit-identical results**: the validated run's :class:`FctStats`,
   per-flow :class:`~repro.metrics.flowtable.FlowTable`, events-run
   count and completions must equal the bare run's, proving the auditor
   observes without perturbing.

Exit status is non-zero if either property fails anywhere, which is how
CI consumes this module.  Cells fan out over forked workers
(``--jobs``); each (scheme, topology) pair becomes two
:func:`~repro.experiments.parallel.scheme_grid` cells, one per value of
the ``validate`` task field, each forked from the same pristine parent,
so the bare/validated halves of a comparison run under identical
conditions.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from ..experiments.parallel import run_grid, scheme_grid
from ..experiments.runner import format_table
from ..experiments.scenarios import (
    SCHEMES,
    SIM_PFC,
    all_to_all_scenario,
    dumbbell_scenario,
    sim_fabric,
    star_fabric,
)
from ..sim.hybrid import HybridConfig
from ..workloads.distributions import WEB_SEARCH

DEFAULT_FLOWS = 24
DEFAULT_EVENT_BUDGET = 3_000_000
# The auditor's per-slice laws run every max_time / 200 of simulated
# time: at the default 10 s a slice is 50 ms, and every cell finishes
# inside its first one, so the RTO and ledger-order laws would only
# ever see retired senders.  A 1 ms slice catches senders in flight.
MAX_TIME = 0.2


def _star_scenario(*, n_flows: int) -> object:
    return all_to_all_scenario(
        "validate-star", WEB_SEARCH, n_flows=n_flows,
        fabric=star_fabric(6), seed=101, max_time=MAX_TIME,
        event_budget=DEFAULT_EVENT_BUDGET)


def _dumbbell_scenario(*, n_flows: int) -> object:
    return dumbbell_scenario(
        "validate-dumbbell", WEB_SEARCH, n_flows=n_flows, seed=102,
        max_time=MAX_TIME, event_budget=DEFAULT_EVENT_BUDGET)


def _leaf_spine(seed: int, **features):
    """A scenario factory on the small leaf-spine, ``features`` (PFC,
    load balancer, hybrid) switched on."""

    def scenario(*, n_flows: int) -> object:
        return all_to_all_scenario(
            "validate-leaf-spine", WEB_SEARCH, n_flows=n_flows,
            fabric=sim_fabric(n_leaf=2, n_spine=2, hosts_per_leaf=4),
            seed=seed, max_time=MAX_TIME,
            event_budget=DEFAULT_EVENT_BUDGET, **features)

    return scenario


#: Matrix cells: topology name -> (scenario factory, the schemes run on
#: it; ``None`` = every scheme).  The feature cells pair PFC with the
#: RoCEv2 schemes it exists for, and the load balancers and the hybrid
#: fast path with the paper's baseline and headline transports.
CELLS = {
    "star": (_star_scenario, None),
    "dumbbell": (_dumbbell_scenario, None),
    "leaf-spine": (_leaf_spine(103), None),
    "leaf-spine-pfc": (_leaf_spine(104, pfc_config=SIM_PFC),
                       ("dcqcn", "hpcc")),
    # ndp replaces the flowlet balancer with its spray: the laws must
    # skip a balancer that keeps no flowlet state
    "leaf-spine-flowlet": (_leaf_spine(105, lb="flowlet"),
                           ("dctcp", "ppt", "ndp")),
    # the same traffic with a 20 us flowlet gap: at the default 500 us
    # gap these flows barely re-pin, so the flowlet laws see no switch
    "leaf-spine-flowlet-short": (
        _leaf_spine(105, lb="flowlet", lb_gap=20e-6), ("dctcp", "ppt")),
    "leaf-spine-conga": (_leaf_spine(106, lb="conga"), ("dctcp", "ppt")),
    "leaf-spine-hybrid": (
        _leaf_spine(107, hybrid=HybridConfig(size_threshold=200_000)),
        ("dctcp", "ppt")),
}


def run_matrix(schemes: Optional[List[str]] = None, *,
               flows: int = DEFAULT_FLOWS, jobs: int = -1,
               out=sys.stdout) -> int:
    """Run the matrix; print one row per cell; return the exit status."""
    schemes = schemes or sorted(SCHEMES)
    # the whole matrix twice — bare, then validated — as one grid
    bare_grid, validated_grid = [], []
    for topo_name, (scenario_factory, cell_schemes) in CELLS.items():
        picked = {s: SCHEMES[s] for s in cell_schemes or schemes
                  if s in schemes}
        for grid, validate in ((bare_grid, False), (validated_grid, True)):
            cells = scheme_grid(picked, scenario_factory,
                                [{"n_flows": flows}], validate=validate)
            for task in cells:  # a dead worker names its topology too
                task.label = f"{task.scheme_key}@{topo_name}"
            grid += cells
    summaries = run_grid(bare_grid + validated_grid, jobs=jobs)

    rows = []
    failures = 0
    for task, bare, validated in zip(bare_grid, summaries,
                                     summaries[len(bare_grid):]):
        label = task.label
        report = validated.validation
        identical = (bare.stats == validated.stats
                     and bare.table == validated.table
                     and bare.health.events_run == validated.health.events_run
                     and bare.health.completed == validated.health.completed)
        ok = identical and report is not None and report.ok
        if not ok:
            failures += 1
        problems = []
        if not identical:
            problems.append("NOT bit-identical")
        if report is None:
            problems.append("no report")
        elif not report.ok:
            problems.append(report.describe())
        rows.append({
            "cell": label,
            "flows": (f"{validated.health.completed}/"
                      f"{validated.health.n_flows}"),
            "events": validated.health.events_run,
            "checks": report.checks_run if report is not None else 0,
            "result": "ok" if ok else "; ".join(problems),
        })
        if report is not None and not report.ok:
            for violation in report.violations[:5]:
                print(f"  {label}: {violation.describe()}",
                      file=sys.stderr)

    print(format_table(rows), file=out)
    checks = sum(r["checks"] for r in rows)
    print(f"\n{len(rows)} cells, {checks} invariant checks, "
          f"{failures} failing cell(s)", file=out)
    return 1 if failures else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.validate.matrix",
        description="audit every scheme on every canonical topology and "
                    "check validated runs are bit-identical to bare ones")
    parser.add_argument("--schemes", nargs="+", default=None,
                        choices=sorted(SCHEMES))
    parser.add_argument("--flows", type=int, default=DEFAULT_FLOWS)
    parser.add_argument("--jobs", type=int, default=-1,
                        help="worker processes (-1 = one per core)")
    args = parser.parse_args(argv)
    return run_matrix(args.schemes, flows=args.flows, jobs=args.jobs)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
