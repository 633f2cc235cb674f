"""Tests for the NDP trimming + pull transport."""

import functools

import pytest

from conftest import make_ctx, make_leaf_spine, make_star, run_single_flow
from repro.experiments.runner import run
from repro.experiments.scenarios import all_to_all_scenario, sim_fabric
from repro.sim.routing import SprayBalancer
from repro.transport.base import Flow
from repro.transport.ndp import NDP_QUEUE_PACKETS, Ndp
from repro.workloads.distributions import WEB_SEARCH


def test_configure_network_trims_and_sprays():
    scheme = Ndp()
    topo = make_leaf_spine()
    scheme.configure_network(topo.network)
    assert all(isinstance(sw.lb, SprayBalancer)
               for sw in topo.network.switches)
    host_uplinks = {h.uplink for h in topo.network.hosts.values()}
    for port in topo.network.ports:
        if port in host_uplinks:
            assert not port.mux.trim  # NIC queues untouched
        else:
            assert port.mux.trim
            assert port.mux.trim_threshold_bytes == NDP_QUEUE_PACKETS * 1500


def test_solo_flow_near_optimal():
    scheme = Ndp()
    topo = make_star()
    flow, ctx, topo = run_single_flow(scheme, 500_000, topo=topo, until=1.0)
    assert flow.completed
    ideal = 500_000 * 8 / topo.edge_rate
    assert flow.fct < 3 * ideal


def test_first_window_unsolicited_then_pull_clocked():
    scheme = Ndp(rtt_bytes=15_000)  # 10-packet first window
    topo = make_star()
    ctx = make_ctx(topo)
    scheme.configure_network(topo.network)
    flow = Flow(0, 0, 1, 300_000, 0.0)
    scheme.start_flow(flow, ctx)
    sender = topo.network.hosts[0].endpoints[0]
    assert sender.next_seq == 10  # only the first window left unsolicited
    topo.sim.run(until=1.0)
    assert flow.completed


def test_trimming_recovers_incast_burst():
    """Several senders blast their first windows: trimmed packets must be
    re-pulled and all flows finish."""
    scheme = Ndp()
    topo = make_star(5)
    scheme.configure_network(topo.network)
    ctx = make_ctx(topo)
    flows = [Flow(i, i, 4, 150_000, 0.0) for i in range(4)]
    for f in flows:
        scheme.start_flow(f, ctx)
    topo.sim.run(until=2.0)
    assert all(f.completed for f in flows)
    trimmed = sum(p.mux.stats.trimmed for p in topo.network.ports)
    assert trimmed > 0  # the experiment actually exercised trimming


def test_pull_pacer_clocks_at_line_rate():
    """Aggregate arrival rate at the receiver approximates its link rate
    while the pull queue is busy."""
    scheme = Ndp()
    topo = make_star(4)
    scheme.configure_network(topo.network)
    ctx = make_ctx(topo)
    flows = [Flow(i, i, 3, 400_000, 0.0) for i in range(3)]
    for f in flows:
        scheme.start_flow(f, ctx)
    topo.sim.run(until=2.0)
    assert all(f.completed for f in flows)
    last = max(f.finish_time for f in flows)
    ideal = 3 * 400_000 * 8 / topo.edge_rate
    assert last < 3 * ideal


def test_receiver_rtx_timer_recovers_silent_loss():
    """Even if data and headers vanish, the receiver-side RTX timer
    re-pulls the holes."""
    scheme = Ndp()
    topo = make_star(3)
    scheme.configure_network(topo.network)
    ctx = make_ctx(topo, min_rto=0.5e-3)
    flow = Flow(0, 0, 2, 100_000, 0.0)
    scheme.start_flow(flow, ctx)
    # sabotage: black-hole the receiver downlink (even headers are
    # dropped) for the first 30us, then restore it
    downlink = topo.network.port_to_host(2)
    real_buffer = downlink.mux.buffer_bytes
    downlink.mux.buffer_bytes = 0

    def restore():
        downlink.mux.buffer_bytes = real_buffer

    topo.sim.schedule(30e-6, restore)
    topo.sim.run(until=1.0)
    assert downlink.mux.stats.dropped > 0
    assert flow.completed


def test_spray_distributes_packets_across_spines():
    scheme = Ndp()
    topo = make_leaf_spine(n_spine=2)
    scheme.configure_network(topo.network)
    ctx = make_ctx(topo)
    flow = Flow(0, 0, 3, 500_000, 0.0)  # cross-leaf
    scheme.start_flow(flow, ctx)
    topo.sim.run(until=1.0)
    assert flow.completed
    spine_ports = [p for p in topo.network.ports
                   if p.name.startswith("leaf0->spine")]
    counts = [p.pkts_sent for p in spine_ports]
    assert all(c > 0 for c in counts)
    assert max(counts) < 2 * min(counts) + 10  # roughly balanced


@functools.lru_cache(maxsize=None)
def _leaf_spine_run(lb):
    result = run(Ndp(), all_to_all_scenario(
        f"ndp-{lb}", WEB_SEARCH, n_flows=12, lb=lb, seed=11,
        fabric=sim_fabric(n_leaf=2, n_spine=2, hosts_per_leaf=4)))
    return [repr(flow.fct) for flow in result.flows], result.wall_events


@pytest.mark.parametrize("lb", ["flowlet", "conga"])
def test_spray_replaces_the_scenario_balancer(lb):
    """NDP installs its spray balancer over the one the scenario asked
    for, so a flowlet or CONGA scenario runs exactly as on ECMP."""
    fcts, events = _leaf_spine_run(lb)
    assert len(fcts) == 12
    assert (fcts, events) == _leaf_spine_run("ecmp")
