"""Tests for Network assembly, control path and QueueConfig."""

import pytest

from conftest import make_star
from repro.sim.network import QueueConfig
from repro.sim.packet import ACK, Packet
from repro.units import ecn_threshold_bytes, gbps, us


def test_control_path_delivers_after_base_delay():
    topo = make_star(3)
    net, sim = topo.network, topo.sim
    received = []
    net.hosts[0].default_endpoint = type(
        "E", (), {"on_packet": staticmethod(received.append)})()
    ack = Packet(1, src=2, dst=0, seq=0, size=64, kind=ACK)
    net.send_control(ack)
    sim.run()
    assert received
    assert sim.now == pytest.approx(net.base_delay(2, 0))


def test_control_path_counts_host_ops():
    topo = make_star(3)
    net = topo.network
    before = net.hosts[2].ops_sent
    net.send_control(Packet(1, 2, 0, 0, 64, kind=ACK))
    assert net.hosts[2].ops_sent == before + 1


def test_attach_endpoints():
    topo = make_star(3)
    net = topo.network
    sender, receiver = object(), object()
    net.attach(5, 0, 1, sender, receiver)
    assert net.hosts[0].endpoints[5] is sender
    assert net.hosts[1].endpoints[5] is receiver


def test_late_packet_to_unregistered_flow_is_discarded():
    topo = make_star(3)
    # no endpoint registered: must not raise
    topo.network.hosts[1].receive(Packet(123, 0, 1, 0, 1500))


def test_queue_config_explicit_thresholds():
    qcfg = QueueConfig(buffer_bytes=100_000,
                       ecn_thresholds=[1000] * 4 + [500] * 4)
    mux = qcfg.build(gbps(10))
    assert mux.ecn_thresholds == [1000] * 4 + [500] * 4


def test_queue_config_lambda_derivation():
    rtt = us(80)
    qcfg = QueueConfig(buffer_bytes=100_000, ecn_lambda_high=0.17,
                       ecn_lambda_low=0.1, base_rtt=rtt)
    mux = qcfg.build(gbps(10))
    assert mux.ecn_thresholds[0] == ecn_threshold_bytes(0.17, gbps(10), rtt)
    assert mux.ecn_thresholds[4] == ecn_threshold_bytes(0.1, gbps(10), rtt)


def test_queue_config_lambda_requires_rtt():
    qcfg = QueueConfig(buffer_bytes=100_000, ecn_lambda_high=0.17)
    with pytest.raises(ValueError):
        qcfg.build(gbps(10))


def test_queue_config_no_marking_by_default():
    qcfg = QueueConfig(buffer_bytes=100_000)
    mux = qcfg.build(gbps(10))
    assert mux.ecn_thresholds == [None] * 8


def test_total_drops_aggregate():
    topo = make_star(3)
    net = topo.network
    assert net.total_drops() == 0
