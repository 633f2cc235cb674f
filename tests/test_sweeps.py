"""Tests for a parameter sweep: a scheme grid over scenario variants."""

from repro.experiments.scenarios import all_to_all_scenario, sim_fabric
from repro.experiments.parallel import RunSummary, run_grid, scheme_grid
from repro.transport.dctcp import Dctcp
from repro.workloads.distributions import WEB_SEARCH


def tiny_factory(load=0.4):
    return all_to_all_scenario(
        f"sweep-{load}", WEB_SEARCH, load=load, n_flows=10,
        size_cap=200_000, fabric=sim_fabric(n_leaf=2, n_spine=2,
                                            hosts_per_leaf=2))


def test_sweep_runs_grid():
    progress = []
    summaries = run_grid(
        scheme_grid({"dctcp": Dctcp}, tiny_factory,
                    [{"load": 0.3}, {"load": 0.5}]),
        progress=progress.append)
    assert len(summaries) == 2
    assert progress == ["dctcp @ {'load': 0.3}", "dctcp @ {'load': 0.5}"]
    for summary in summaries:
        assert isinstance(summary, RunSummary)
        assert summary.scheme == "dctcp"
        assert summary.health.completed == 10
        assert summary.stats.overall_avg > 0


def test_sweep_point_row_flattens():
    """One point of a sweep is a ``RunSummary``; its row is the scheme,
    the variant and the FCT numbers, flat."""
    summary, = run_grid(scheme_grid({"dctcp": Dctcp}, tiny_factory,
                                    [{"load": 0.4}]))
    row = summary.row()
    assert row["scheme"] == "dctcp"
    assert row["load"] == 0.4
    assert row["flows"] == 10
    assert row["overall_avg_ms"] == summary.stats.overall_avg * 1e3
