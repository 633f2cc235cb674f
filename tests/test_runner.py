"""Tests for the experiment harness."""

import re
from pathlib import Path

import pytest

from repro.experiments.runner import Scenario, format_table, run, two_pass
from repro.experiments.scenarios import (
    all_to_all_scenario,
    incast_scenario,
    sim_config,
    sim_fabric,
    testbed_scenario as _testbed_scenario,
    two_to_one_scenario,
)
from repro.transport.dctcp import Dctcp
from repro.workloads.distributions import WEB_SEARCH


def tiny_scenario(n_flows=20, **kwargs):
    return all_to_all_scenario(
        "tiny", WEB_SEARCH, n_flows=n_flows, size_cap=300_000,
        fabric=sim_fabric(n_leaf=2, n_spine=2, hosts_per_leaf=2), **kwargs)


def test_run_completes_all_flows():
    result = run(Dctcp(), tiny_scenario())
    assert result.health.completion_rate == 1.0
    assert result.stats.n_flows == 20
    assert result.scheme_name == "dctcp"
    assert "dctcp" in result.summary()


@pytest.mark.parametrize("budget", [0, -5])
def test_scenario_refuses_a_non_positive_event_budget(budget):
    """A zero budget used to run no event and report 0/N as a finished
    run."""
    with pytest.raises(ValueError, match="event_budget must be positive"):
        tiny_scenario(event_budget=budget)


def test_run_deterministic():
    r1 = run(Dctcp(), tiny_scenario())
    r2 = run(Dctcp(), tiny_scenario())
    assert [f.fct for f in r1.flows] == [f.fct for f in r2.flows]


def test_run_different_seeds_differ():
    r1 = run(Dctcp(), tiny_scenario())
    r2 = run(Dctcp(), all_to_all_scenario(
        "tiny2", WEB_SEARCH, n_flows=20, size_cap=300_000, seed=99,
        fabric=sim_fabric(n_leaf=2, n_spine=2, hosts_per_leaf=2)))
    assert [f.fct for f in r1.flows] != [f.fct for f in r2.flows]


def test_two_pass_same_flows():
    base, hypo = two_pass(tiny_scenario())
    assert base.health.completion_rate == 1.0
    assert hypo.health.completion_rate == 1.0
    assert [f.size for f in base.flows] == [f.size for f in hypo.flows]


def test_max_time_safety_stop():
    scenario = tiny_scenario()
    scenario.max_time = 1e-6  # absurdly short
    result = run(Dctcp(), scenario)
    assert result.completed < len(result.flows)


def test_scenario_builders_shapes():
    s1 = incast_scenario("i", WEB_SEARCH, n_senders=4, n_flows=5)
    topo = s1.build_topology()
    flows = s1.build_flows(topo)
    assert all(f.dst == 0 for f in flows)

    s2 = two_to_one_scenario("t", n_flows=5)
    topo2 = s2.build_topology()
    flows2 = s2.build_flows(topo2)
    assert all(f.dst == 2 and f.src in (0, 1) for f in flows2)

    s3 = _testbed_scenario("tb", WEB_SEARCH, n_flows=5, pattern="incast")
    topo3 = s3.build_topology()
    assert topo3.n_hosts == 15
    flows3 = s3.build_flows(topo3)
    assert all(f.dst == 0 for f in flows3)
    assert s3.config.min_rto == pytest.approx(10e-3)


def test_format_table():
    rows = [{"a": 1, "b": 2.5}, {"a": 10, "b": 0.125}]
    text = format_table(rows)
    lines = text.splitlines()
    assert lines[0].split() == ["a", "b"]
    assert "10" in lines[3]
    assert format_table([]) == "(no rows)"
    assert "a" in format_table(rows, columns=["a"])


def test_only_the_runner_drives_the_run_lifecycle():
    """``run()`` is the one way to execute a scenario: nothing outside
    ``experiments/runner.py`` assembles or harvests a run, so a second
    lifecycle client has to argue its way in here first."""
    src = Path(__file__).resolve().parent.parent / "src" / "repro"
    callers = {path.relative_to(src).as_posix()
               for path in src.rglob("*.py")
               if re.search(r"\b_(assemble|harvest)\(", path.read_text())}
    assert callers == {"experiments/runner.py"}
