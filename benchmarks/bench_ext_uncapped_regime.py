"""Extension: the uncapped heavy-tail regime costs the same per event
on every seed.

Uncapped Web Search at n=80 has seeds where one starved multi-MB flow
keeps re-opening its low-priority loop (seed 5 of the four below).
Before the send ledgers were ordered by send time such a seed cost 4.3x
the wall time *per event* of its neighbours; the assertion is a ratio
of timings taken inside the workers of one grid, so box speed cancels.
"""

import sys
from pathlib import Path

from conftest import run_figure
from repro.core.ppt import Ppt
from repro.experiments.parallel import run_grid, scheme_grid
from repro.experiments.scenarios import all_to_all_scenario
from repro.workloads.distributions import WEB_SEARCH

sys.path.insert(0, str(Path(__file__).parent / "suite"))
from workloads import StratifiedSizes  # noqa: E402 — read, never changed

SEEDS = (3, 4, 5, 6)
N_FLOWS = 80


def _scenario(seed):
    return all_to_all_scenario(
        f"uncapped-{seed}", StratifiedSizes(WEB_SEARCH, N_FLOWS, seed),
        load=0.5, n_flows=N_FLOWS, size_cap=None, seed=seed, max_time=60.0)


def _run_seeds(jobs=None):
    cells = run_grid(scheme_grid({"ppt": Ppt}, _scenario,
                                 [{"seed": seed} for seed in SEEDS],
                                 observe=True), jobs=jobs)
    return {"rows": [{"seed": cell.params["seed"],
                      "flows": cell.health.completed,
                      "events": cell.health.events_run,
                      "us_per_event": 1e6 / cell.telemetry.events_per_sec}
                     for cell in cells]}


def test_cost_per_event_is_flat_across_seeds(benchmark):
    result = run_figure(benchmark, "Extension: uncapped regime, wall per event",
                        _run_seeds, jobs=-1)
    assert all(row["flows"] == N_FLOWS for row in result["rows"])
    costs = [row["us_per_event"] for row in result["rows"]]
    assert max(costs) <= 1.6 * min(costs), costs
