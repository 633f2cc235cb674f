"""Tests for switch forwarding and host dispatch behaviours."""

from collections import Counter

import pytest

from conftest import make_leaf_spine, make_star, switch_hops
from repro.core.ppt import Ppt
from repro.experiments.runner import run
from repro.experiments.scenarios import all_to_all_scenario, sim_fabric
from repro.sim.host import Host
from repro.sim.link import Port
from repro.sim.network import ControlPipe
from repro.sim.packet import Packet
from repro.sim.queues import PriorityMux
from repro.sim.routing import SprayBalancer
from repro.transport.window import WindowSender
from repro.workloads.distributions import WEB_SEARCH


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
    assert seen
    assert switch_hops(net) == 3  # leaf, spine, leaf


def test_the_simulation_runs_the_canonical_datapath_steps(monkeypatch):
    """Every admission is ``Port.send``, every dequeue
    ``PriorityMux.dequeue``, every RTO arm ``WindowSender.rto_interval``,
    every control send ``ControlPipe.send`` and every endpoint dispatch
    ``Host.receive_control``: a copy of one
    of them inlined into a caller would bypass the counters below, so
    patching a seam changes what the simulation does, not only its
    speed."""
    calls = Counter()

    def counted(cls, name, key=None):
        original = getattr(cls, name)
        key = key or name

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(cls, name, wrapper)

    counted(Port, "send")
    counted(PriorityMux, "dequeue")
    counted(WindowSender, "rto_interval")
    counted(Host, "receive_control")
    counted(ControlPipe, "send", "control")
    scenario = all_to_all_scenario(
        "seams", WEB_SEARCH, load=0.5, n_flows=30, size_cap=200_000,
        seed=11, fabric=sim_fabric(n_leaf=2, n_spine=2, hosts_per_leaf=4))
    result = run(Ppt(), scenario)
    assert result.completed == 30
    net = result.topology.network
    muxes = [port.mux for port in net.ports]
    offered = sum(mux.stats.offered for mux in muxes)
    assert calls["send"] == offered + sum(port.fault_admit_drops
                                          for port in net.ports) > 0
    assert calls["dequeue"] == sum(mux.stats.dequeued for mux in muxes) > 0
    assert calls["rto_interval"] > 0
    # one datapath op per arrival: fabric and control deliveries alike
    # (the drain ran on past the last ACK, so every control packet landed)
    hosts = net.hosts.values()
    assert calls["receive_control"] == (
        sum(host.pkts_from_fabric for host in hosts) + calls["control"])
    assert sum(host.ops_received for host in hosts) == calls["receive_control"]
