"""Tests for the k-ary fat-tree builder."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_ctx, switch_hops
from repro.core.ppt import Ppt
from repro.sim.packet import Packet
from repro.sim.topology import fat_tree
from repro.transport.base import Flow
from repro.transport.dctcp import Dctcp
from repro.units import gbps


def test_k4_shape():
    topo = fat_tree(k=4)
    assert topo.n_hosts == 16                      # k^3/4
    assert len(topo.network.switches) == 20        # 8 edge + 8 agg + 4 core


def test_k6_shape():
    topo = fat_tree(k=6)
    assert topo.n_hosts == 54
    assert len(topo.network.switches) == 6 * 6 + 9  # 18 edge + 18 agg + 9 core


def test_odd_or_tiny_k_rejected():
    with pytest.raises(ValueError):
        fat_tree(k=3)
    with pytest.raises(ValueError):
        fat_tree(k=0)


def test_intra_edge_path_is_one_hop():
    topo = fat_tree(k=4)
    net, sim = topo.network, topo.sim
    seen = []
    net.hosts[1].default_endpoint = type(
        "E", (), {"on_packet": staticmethod(seen.append)})()
    net.hosts[0].send(Packet(1, 0, 1, 0, 1500))  # same edge switch
    sim.run()
    assert seen and switch_hops(net) == 1


def test_intra_pod_path_is_three_hops():
    topo = fat_tree(k=4)
    net, sim = topo.network, topo.sim
    seen = []
    # host 0 is on edge0.0; host 2 is on edge0.1 (same pod, other edge)
    net.hosts[2].default_endpoint = type(
        "E", (), {"on_packet": staticmethod(seen.append)})()
    net.hosts[0].send(Packet(1, 0, 2, 0, 1500))
    sim.run()
    assert seen and switch_hops(net) == 3  # edge, agg, edge


def test_cross_pod_path_is_five_hops():
    topo = fat_tree(k=4)
    net, sim = topo.network, topo.sim
    dst = topo.n_hosts - 1  # last pod
    seen = []
    net.hosts[dst].default_endpoint = type(
        "E", (), {"on_packet": staticmethod(seen.append)})()
    net.hosts[0].send(Packet(1, 0, dst, 0, 1500))
    sim.run()
    assert seen and switch_hops(net) == 5  # edge, agg, core, agg, edge


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=15),
       st.integers(min_value=0, max_value=15))
def test_all_pairs_reachable_k4(src, dst):
    if src == dst:
        return
    topo = fat_tree(k=4)
    net, sim = topo.network, topo.sim
    seen = []
    net.hosts[dst].default_endpoint = type(
        "E", (), {"on_packet": staticmethod(seen.append)})()
    net.hosts[src].send(Packet(1, src, dst, 0, 1500))
    sim.run()
    assert seen, f"{src}->{dst} undeliverable"


def test_base_delay_symmetric_and_ordered():
    topo = fat_tree(k=4)
    net = topo.network
    intra_edge = net.base_rtt(0, 1)
    intra_pod = net.base_rtt(0, 2)
    cross_pod = net.base_rtt(0, 15)
    assert intra_edge < intra_pod < cross_pod
    assert net.base_rtt(0, 15) == pytest.approx(net.base_rtt(15, 0))


def test_transports_run_on_fat_tree():
    topo = fat_tree(k=4, host_rate=gbps(40))
    ctx = make_ctx(topo)
    flows = [Flow(0, 0, 15, 400_000, 0.0),   # cross-pod
             Flow(1, 2, 15, 400_000, 0.0)]   # intra-pod to same dst
    scheme = Ppt()
    for flow in flows:
        scheme.start_flow(flow, ctx)
    topo.sim.run(until=5.0)
    assert all(f.completed for f in flows)
