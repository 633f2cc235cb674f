"""Tests for the canonical scenario configurations (paper fidelity)."""

import pytest

from repro.experiments.scenarios import (
    HOMA_OVERCOMMIT,
    HOMA_RTT_BYTES_SIM,
    HOMA_RTT_BYTES_TESTBED,
    SIM_BUFFER,
    SIM_K_HIGH,
    SIM_K_LOW,
    TESTBED_K_HIGH,
    TESTBED_K_LOW,
    all_to_all_scenario,
    incast_scenario,
    sim_config,
    sim_fabric,
    sim_fabric_100_400g,
    sim_fabric_non_oversubscribed,
    sim_qcfg,
    testbed_config as _testbed_config,
    testbed_fabric as _testbed_fabric,
    testbed_params as _testbed_params,
)
from repro.units import gbps
from repro.workloads.distributions import WEB_SEARCH


def test_sim_fabric_paper_parameters():
    topo = sim_fabric()()
    assert topo.edge_rate == gbps(40)
    assert topo.core_rate == gbps(100)
    # every switch port carries the paper's 120KB / 96KB / 86KB settings
    switch_ports = [p for p in topo.network.ports
                    if p.mux.buffer_bytes == SIM_BUFFER]
    assert switch_ports
    mux = switch_ports[0].mux
    assert mux.ecn_thresholds[:4] == [SIM_K_HIGH] * 4
    assert mux.ecn_thresholds[4:] == [SIM_K_LOW] * 4


def test_sim_fabric_oversubscription_ratio():
    topo = sim_fabric()()
    hosts_per_leaf = topo.n_hosts // 4
    up = 2 * topo.core_rate            # 2 spines x 100G
    down = hosts_per_leaf * topo.edge_rate
    assert down / up == pytest.approx(1.6)  # scaled replica of 1.4:1


def test_100_400g_variant():
    topo = sim_fabric_100_400g()()
    assert topo.edge_rate == gbps(100)
    assert topo.core_rate == gbps(400)


def test_non_oversubscribed_variant():
    topo = sim_fabric_non_oversubscribed()()
    assert topo.edge_rate == gbps(10)
    assert topo.core_rate == gbps(40)
    hosts_per_leaf = topo.n_hosts // 4
    assert hosts_per_leaf * topo.edge_rate <= 2 * topo.core_rate


def test_testbed_fabric_matches_table3():
    topo = _testbed_fabric()()
    assert topo.n_hosts == 15
    assert topo.edge_rate == gbps(10)
    # base RTT ~ 80us (Table 3)
    assert 60e-6 <= topo.base_rtt <= 100e-6
    port = topo.network.port_to_host(0)
    assert port.mux.ecn_thresholds[0] == TESTBED_K_HIGH
    assert port.mux.ecn_thresholds[4] == TESTBED_K_LOW


def test_configs_match_table3():
    testbed = _testbed_config()
    assert testbed.min_rto == pytest.approx(10e-3)          # RTO_min 10ms
    assert testbed.identification_threshold == 100_000      # 100KB
    sim = sim_config()
    assert sim.send_buffer_bytes == 2_000_000_000           # 2GB (§6.2)
    assert HOMA_RTT_BYTES_SIM == 45_000
    assert HOMA_RTT_BYTES_TESTBED == 50_000
    assert HOMA_OVERCOMMIT == 2


def test_testbed_params_table_rows():
    params = {r["parameter"]: r["setting"] for r in _testbed_params()}
    assert params["RTT"] == "80us"
    assert params["Switch port number"] == "54"


def test_load_preserved_under_size_cap():
    """Capping sizes must not change the offered load (the capped mean
    feeds the arrival rate)."""
    scenario = all_to_all_scenario("cap", WEB_SEARCH, load=0.5,
                                   n_flows=3000, size_cap=500_000)
    topo = scenario.build_topology()
    flows = scenario.build_flows(topo)
    horizon = flows[-1].start_time
    offered = sum(f.size for f in flows) * 8 / horizon
    target = 0.5 * topo.n_hosts * topo.edge_rate
    assert offered == pytest.approx(target, rel=0.15)


def test_scenarios_have_distinct_seeds_but_stable_defaults():
    s1 = all_to_all_scenario("a", WEB_SEARCH, n_flows=10)
    s2 = all_to_all_scenario("b", WEB_SEARCH, n_flows=10)
    f1 = s1.build_flows(s1.build_topology())
    f2 = s2.build_flows(s2.build_topology())
    assert [(f.src, f.dst, f.size) for f in f1] == \
           [(f.src, f.dst, f.size) for f in f2]  # same default seed


def test_sim_qcfg_overrides():
    qcfg = sim_qcfg(k_low=40_000, dt_alpha=None)
    mux = qcfg.build(gbps(40))
    assert mux.ecn_thresholds[4] == 40_000
    assert mux.dt_alphas is None


@pytest.mark.parametrize("n_senders", [0, -3, 500])
def test_incast_scenario_rejects_fewer_than_one_sender(n_senders):
    """A negative count used to slice ``[:-3]`` off the host list and
    run the remaining senders silently; so did a count above the
    fabric's 31 non-receiver hosts, which is refused when the flows are
    built against the fabric."""
    with pytest.raises(ValueError, match="n_senders"):
        scenario = incast_scenario("bad", WEB_SEARCH, n_senders=n_senders)
        scenario.build_flows(scenario.build_topology())
