"""Tests for topology builders and network wiring."""

import pytest

from conftest import make_leaf_spine, make_star, quick_qcfg, switch_hops
from repro.sim.packet import Packet
from repro.sim.routing import SprayBalancer
from repro.sim.topology import dumbbell, leaf_spine, star


def test_star_builds_hosts_and_routes():
    topo = make_star(5)
    net = topo.network
    assert len(net.hosts) == 5
    assert len(net.switches) == 1
    for host_id in range(5):
        assert net.port_to_host(host_id) is not None
        assert net.hosts[host_id].uplink is not None


def test_star_base_delay_symmetric():
    topo = make_star(4)
    assert topo.network.base_delay(0, 1) == pytest.approx(
        topo.network.base_delay(1, 0))


def test_dumbbell_routes_both_ways():
    topo = dumbbell()
    sim, net = topo.sim, topo.network
    received = []
    net.hosts[1].default_endpoint = type(
        "E", (), {"on_packet": staticmethod(received.append)})()
    pkt = Packet(99, 0, 1, 0, 1500)
    net.hosts[0].send(pkt)
    sim.run()
    assert received and switch_hops(net) == 2


def test_leaf_spine_host_count():
    topo = make_leaf_spine(n_leaf=3, hosts_per_leaf=4)
    assert topo.n_hosts == 12
    assert len(topo.network.switches) == 3 + 2  # leaves + spines


def test_leaf_spine_cross_leaf_ecmp_candidates():
    topo = make_leaf_spine(n_leaf=2, n_spine=3, hosts_per_leaf=2)
    net = topo.network
    leaf0 = net.switches[0]
    # remote host: one candidate per spine
    remote = 2  # host under leaf1
    assert len(leaf0.table[remote]) == 3
    # local host: exactly its downlink
    assert len(leaf0.table[0]) == 1


def test_leaf_spine_delivers_cross_leaf():
    topo = make_leaf_spine()
    net, sim = topo.network, topo.sim
    received = []
    dst = topo.n_hosts - 1
    net.hosts[dst].default_endpoint = type(
        "E", (), {"on_packet": staticmethod(received.append)})()
    net.hosts[0].send(Packet(5, 0, dst, 0, 1500))
    sim.run()
    assert received and switch_hops(net) == 3  # leaf, spine, leaf


def test_leaf_spine_intra_leaf_stays_local():
    topo = make_leaf_spine(hosts_per_leaf=4)
    net, sim = topo.network, topo.sim
    received = []
    net.hosts[1].default_endpoint = type(
        "E", (), {"on_packet": staticmethod(received.append)})()
    net.hosts[0].send(Packet(5, 0, 1, 0, 1500))
    sim.run()
    assert received and switch_hops(net) == 1  # only the leaf


def test_cross_leaf_base_delay_larger_than_intra():
    topo = make_leaf_spine(hosts_per_leaf=2)
    net = topo.network
    intra = net.base_rtt(0, 1)
    cross = net.base_rtt(0, 2)
    assert cross > intra


def test_host_uplink_uses_large_nic_buffer():
    topo = make_star(3)
    host_buffer = topo.network.hosts[0].uplink.mux.buffer_bytes
    switch_buffer = topo.network.port_to_host(0).mux.buffer_bytes
    assert host_buffer > switch_buffer


def test_no_route_raises():
    topo = make_star(3)
    switch = topo.network.switches[0]
    with pytest.raises(KeyError):
        switch.receive(Packet(1, 0, 99, 0, 1500))


def test_base_delay_unknown_host_raises():
    topo = make_star(3)
    with pytest.raises(KeyError):
        topo.network.base_delay(0, 99)


def test_base_delay_self_is_zero():
    topo = make_star(3)
    assert topo.network.base_delay(1, 1) == 0.0


def test_set_load_balancer_one_instance_per_switch():
    topo = make_leaf_spine()
    switches = topo.network.switches
    topo.network.set_load_balancer(SprayBalancer)
    balancers = {id(sw.lb) for sw in switches}
    assert len(balancers) == len(switches)
    assert all(isinstance(sw.lb, SprayBalancer) for sw in switches)
    topo.network.set_load_balancer(lambda: None)
    assert all(sw.lb is None for sw in switches)
