"""Extension: chaos sweep — SIGKILL workers mid-sweep, recover, merge.

Not a paper figure — this exercises the supervised grid
(``run_grid(..., timeout=, retries=)``) the way a flaky cluster would: a
scheme x seed grid runs under supervision while half the cells SIGKILL
their worker process on the first attempt (the observable signature of
an OOM kill or a preempted node).  The grid must detect every death by
process exit, relaunch the cell after backoff, and — because each cell
builds a fresh scenario from its own seeds — produce a merge that is
**bit-identical** to an undisturbed sweep's, at the cost of exactly
one extra attempt per killed cell.
"""

import os
import signal
import tempfile

from conftest import run_figure
from repro.core.ppt import Ppt
from repro.experiments.parallel import FailedTask, run_grid, scheme_grid
from repro.experiments.scenarios import all_to_all_scenario
from repro.transport.dctcp import Dctcp
from repro.workloads.distributions import WEB_SEARCH

N_FLOWS = 60
SEEDS = [1, 2, 3]
KILL_SEEDS = {1, 3}  # cells whose first attempt dies
SCHEMES = {"dctcp": Dctcp, "ppt": Ppt}

_MARKER_DIR = None  # set per run; forked workers inherit it


def _scenario(seed=1):
    return all_to_all_scenario(f"chaos-{seed}", WEB_SEARCH, load=0.5,
                               n_flows=N_FLOWS, size_cap=500_000, seed=seed)


def _chaotic_scenario(seed=1):
    """Like :func:`_scenario`, but the first attempt of a marked cell
    SIGKILLs its own worker before the simulation starts."""
    marker = os.path.join(_MARKER_DIR, f"killed-{seed}")
    if seed in KILL_SEEDS and not os.path.exists(marker):
        open(marker, "w").close()
        os.kill(os.getpid(), signal.SIGKILL)
    return _scenario(seed)


def _fingerprint(summary):
    return (summary.scheme, summary.params["seed"], summary.health.completed,
            summary.health.n_flows, summary.health.events_run,
            repr(summary.stats.overall_avg), repr(summary.stats.small_p99))


def _run_chaos_sweep():
    global _MARKER_DIR
    variants = [{"seed": s} for s in SEEDS]
    undisturbed = run_grid(scheme_grid(SCHEMES, _scenario, variants), jobs=2)

    with tempfile.TemporaryDirectory() as markers:
        _MARKER_DIR = markers
        tasks = scheme_grid(SCHEMES, _chaotic_scenario, variants)
        results = run_grid(tasks, jobs=2, timeout=300.0, retries=2)
        kills_fired = len(os.listdir(markers))

    rows = []
    for plain, survived in zip(undisturbed, results):
        lost = isinstance(survived, FailedTask)
        rows.append({
            "scheme": plain.scheme,
            "seed": plain.params["seed"],
            "completed": "LOST" if lost
            else f"{survived.health.completed}/{survived.health.n_flows}",
            "killed_once": plain.params["seed"] in KILL_SEEDS,
            "attempts": survived.attempts,
            "identical": (not lost
                          and _fingerprint(survived) == _fingerprint(plain)),
        })
    return {
        "rows": rows,
        "_failed": [f.describe() for f in results
                    if isinstance(f, FailedTask)],
        "_kills": kills_fired,
    }


def test_chaos_supervisor(benchmark):
    result = run_figure(benchmark,
                        "Extension: SIGKILL chaos sweep under supervision",
                        _run_chaos_sweep)
    # every marked cell really lost a worker...
    assert result["_kills"] == len(KILL_SEEDS), result["_kills"]
    # ...yet nothing was quarantined: every death was retried to success
    assert result["_failed"] == []
    # one relaunch per killed cell, no more (kills fire per seed marker,
    # so only the first scheme to reach a marked seed dies, and no cell
    # outside the marked seeds was ever relaunched)
    relaunched = [row for row in result["rows"] if row["attempts"] != 1]
    assert len(relaunched) == result["_kills"]
    assert all(row["attempts"] == 2 and row["killed_once"]
               for row in relaunched)
    # and the recovered merge is bit-identical to the undisturbed sweep
    assert all(row["identical"] for row in result["rows"])
