"""The validation matrix: every scheme on every canonical topology.

``python -m repro.validate.matrix`` runs each registered transport
scheme over the star, dumbbell and (scaled) leaf-spine fabrics twice —
once bare, once with the :class:`~repro.validate.RunAuditor` attached —
and demands two things of every cell:

1. **zero invariant violations** in audit mode, and
2. **bit-identical results**: the validated run's :class:`FctStats`,
   events-run count and run health must equal the bare run's, proving
   the auditor observes without perturbing.

Exit status is non-zero if either property fails anywhere, which is how
CI consumes this module.  Cells fan out over forked workers
(``--jobs``); each (scheme, topology) pair becomes two
:class:`~repro.experiments.parallel.GridTask` cells so the bare/validated
halves of a comparison run under identical conditions.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from ..cli import SCHEME_FACTORIES
from ..experiments.parallel import GridTask, run_grid
from ..experiments.runner import format_table
from ..experiments.scenarios import (
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


def _star_scenario(*, n_flows: int) -> object:
    return all_to_all_scenario(
        "validate-star", WEB_SEARCH, n_flows=n_flows,
        fabric=star_fabric(6), seed=101,
        event_budget=DEFAULT_EVENT_BUDGET)


def _dumbbell_scenario(*, n_flows: int) -> object:
    return dumbbell_scenario(
        "validate-dumbbell", WEB_SEARCH, n_flows=n_flows, seed=102,
        event_budget=DEFAULT_EVENT_BUDGET)


def _leaf_spine_scenario(*, n_flows: int) -> object:
    return all_to_all_scenario(
        "validate-leaf-spine", WEB_SEARCH, n_flows=n_flows,
        fabric=sim_fabric(n_leaf=2, n_spine=2, hosts_per_leaf=4), seed=103,
        event_budget=DEFAULT_EVENT_BUDGET)


def _leaf_spine_pfc_scenario(*, n_flows: int) -> object:
    return all_to_all_scenario(
        "validate-leaf-spine-pfc", WEB_SEARCH, n_flows=n_flows,
        fabric=sim_fabric(n_leaf=2, n_spine=2, hosts_per_leaf=4), seed=104,
        event_budget=DEFAULT_EVENT_BUDGET, pfc_config=SIM_PFC)


def _leaf_spine_flowlet_scenario(*, n_flows: int) -> object:
    return all_to_all_scenario(
        "validate-leaf-spine-flowlet", WEB_SEARCH, n_flows=n_flows,
        fabric=sim_fabric(n_leaf=2, n_spine=2, hosts_per_leaf=4), seed=105,
        event_budget=DEFAULT_EVENT_BUDGET, lb="flowlet")


def _leaf_spine_conga_scenario(*, n_flows: int) -> object:
    return all_to_all_scenario(
        "validate-leaf-spine-conga", WEB_SEARCH, n_flows=n_flows,
        fabric=sim_fabric(n_leaf=2, n_spine=2, hosts_per_leaf=4), seed=106,
        event_budget=DEFAULT_EVENT_BUDGET, lb="conga")


def _leaf_spine_hybrid_scenario(*, n_flows: int) -> object:
    return all_to_all_scenario(
        "validate-leaf-spine-hybrid", WEB_SEARCH, n_flows=n_flows,
        fabric=sim_fabric(n_leaf=2, n_spine=2, hosts_per_leaf=4), seed=107,
        event_budget=DEFAULT_EVENT_BUDGET,
        hybrid=HybridConfig(size_threshold=200_000))


TOPOLOGIES = {
    "star": _star_scenario,
    "dumbbell": _dumbbell_scenario,
    "leaf-spine": _leaf_spine_scenario,
}

#: Feature cells: (scenario factory, schemes that exercise the feature).
#: PFC pairs with the RoCEv2 schemes it exists for; the load balancers
#: pair with the paper's baseline and headline transports.
FEATURE_CELLS = {
    "leaf-spine-pfc": (_leaf_spine_pfc_scenario, ("dcqcn", "hpcc")),
    "leaf-spine-flowlet": (_leaf_spine_flowlet_scenario, ("dctcp", "ppt")),
    "leaf-spine-conga": (_leaf_spine_conga_scenario, ("dctcp", "ppt")),
    "leaf-spine-hybrid": (_leaf_spine_hybrid_scenario, ("dctcp", "ppt")),
}


def run_matrix(schemes: Optional[List[str]] = None, *,
               flows: int = DEFAULT_FLOWS, jobs: int = -1,
               out=sys.stdout) -> int:
    """Run the matrix; print one row per cell; return the exit status."""
    schemes = schemes or sorted(SCHEME_FACTORIES)
    tasks: List[GridTask] = []
    for topo_name, scenario_factory in TOPOLOGIES.items():
        for scheme in schemes:
            for validate in (False, True):
                tasks.append(GridTask(
                    scheme_factory=SCHEME_FACTORIES[scheme],
                    scenario_factory=scenario_factory,
                    params={"n_flows": flows},
                    label=f"{scheme}@{topo_name}"
                          f"{'+validate' if validate else ''}",
                    scheme_key=scheme,
                    validate=validate))

    for topo_name, (scenario_factory, cell_schemes) in FEATURE_CELLS.items():
        for scheme in cell_schemes:
            if scheme not in schemes:
                continue
            for validate in (False, True):
                tasks.append(GridTask(
                    scheme_factory=SCHEME_FACTORIES[scheme],
                    scenario_factory=scenario_factory,
                    params={"n_flows": flows},
                    label=f"{scheme}@{topo_name}"
                          f"{'+validate' if validate else ''}",
                    scheme_key=scheme,
                    validate=validate))

    summaries = run_grid(tasks, jobs=jobs)

    rows = []
    failures = 0
    for i in range(0, len(tasks), 2):
        bare, validated = summaries[i], summaries[i + 1]
        report = validated.validation
        identical = (bare.stats == validated.stats
                     and bare.wall_events == validated.wall_events
                     and bare.completed == validated.completed)
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
            "cell": tasks[i].label,
            "flows": f"{validated.completed}/{validated.n_flows}",
            "events": validated.wall_events,
            "checks": report.checks_run if report is not None else 0,
            "result": "ok" if ok else "; ".join(problems),
        })
        if report is not None and not report.ok:
            for violation in report.violations[:5]:
                print(f"  {tasks[i].label}: {violation.describe()}",
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
                        choices=sorted(SCHEME_FACTORIES))
    parser.add_argument("--flows", type=int, default=DEFAULT_FLOWS)
    parser.add_argument("--jobs", type=int, default=-1,
                        help="worker processes (-1 = one per core)")
    args = parser.parse_args(argv)
    return run_matrix(args.schemes, flows=args.flows, jobs=args.jobs)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
