"""Tests for switch forwarding and host dispatch behaviours."""

import pytest

from conftest import make_leaf_spine, make_star
from repro.sim.packet import Packet
from repro.sim.routing import SprayBalancer


def test_flow_sticks_to_one_ecmp_path():
    """Without spraying, all packets of one flow take the same uplink."""
    topo = make_leaf_spine(n_spine=2)
    net, sim = topo.network, topo.sim
    dst = topo.n_hosts - 1
    sink = type("E", (), {"on_packet": staticmethod(lambda p: None)})()
    net.hosts[dst].default_endpoint = sink
    for seq in range(40):
        net.hosts[0].send(Packet(77, 0, dst, seq, 1500))
    sim.run()
    spine_ports = [p for p in net.ports if p.name.startswith("leaf0->spine")]
    used = [p for p in spine_ports if p.pkts_sent > 0]
    assert len(used) == 1


def test_different_flows_spread_over_ecmp():
    topo = make_leaf_spine(n_spine=2)
    net, sim = topo.network, topo.sim
    dst = topo.n_hosts - 1
    net.hosts[dst].default_endpoint = type(
        "E", (), {"on_packet": staticmethod(lambda p: None)})()
    for flow_id in range(60):
        net.hosts[0].send(Packet(flow_id, 0, dst, 0, 1500))
    sim.run()
    spine_ports = [p for p in net.ports if p.name.startswith("leaf0->spine")]
    assert all(p.pkts_sent > 10 for p in spine_ports)


def test_spray_alternates_per_packet():
    topo = make_leaf_spine(n_spine=2)
    net, sim = topo.network, topo.sim
    net.set_load_balancer(SprayBalancer)
    dst = topo.n_hosts - 1
    net.hosts[dst].default_endpoint = type(
        "E", (), {"on_packet": staticmethod(lambda p: None)})()
    for seq in range(40):
        net.hosts[0].send(Packet(77, 0, dst, seq, 1500))
    sim.run()
    spine_ports = [p for p in net.ports if p.name.startswith("leaf0->spine")]
    counts = sorted(p.pkts_sent for p in spine_ports)
    assert counts == [20, 20]


def test_host_ops_counters():
    topo = make_star(3)
    net, sim = topo.network, topo.sim
    received = []
    net.hosts[1].default_endpoint = type(
        "E", (), {"on_packet": staticmethod(received.append)})()
    before_sent = net.hosts[0].ops_sent
    net.hosts[0].send(Packet(1, 0, 1, 0, 1500))
    sim.run()
    assert net.hosts[0].ops_sent == before_sent + 1
    assert net.hosts[1].ops_received == 1
    assert net.hosts[0].datapath_ops >= 1


def test_host_send_without_uplink_raises():
    from repro.sim.host import Host
    host = Host(99)
    with pytest.raises(RuntimeError):
        host.send(Packet(1, 99, 0, 0, 1500))


def test_switch_pkts_forwarded_counter():
    topo = make_star(3)
    net, sim = topo.network, topo.sim
    net.hosts[1].default_endpoint = type(
        "E", (), {"on_packet": staticmethod(lambda p: None)})()
    for seq in range(5):
        net.hosts[0].send(Packet(1, 0, 1, seq, 1500))
    sim.run()
    assert net.switches[0].pkts_forwarded == 5


def test_switch_ports_enumeration():
    topo = make_star(4)
    ports = topo.network.switches[0].ports()
    assert len(ports) == 4  # one downlink per host


def test_hops_counted_per_switch():
    topo = make_leaf_spine()
    net, sim = topo.network, topo.sim
    seen = []
    dst = topo.n_hosts - 1
    net.hosts[dst].default_endpoint = type(
        "E", (), {"on_packet": staticmethod(seen.append)})()
    net.hosts[0].send(Packet(1, 0, dst, 0, 1500))
    sim.run()
    assert seen[0].hops == 3
