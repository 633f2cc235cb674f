"""Tests for the TCP-10 and Halfback reactive baselines."""

import pytest

from conftest import make_ctx, make_star, run_single_flow
from repro.transport.base import Flow
from repro.transport.dctcp import Dctcp
from repro.transport.halfback import PACE_OUT_LIMIT, Halfback, HalfbackSender
from repro.transport.tcp10 import Tcp10, Tcp10Sender


# -- TCP-10 -------------------------------------------------------------------


def test_tcp10_completes():
    flow, ctx, _ = run_single_flow(Tcp10(), 500_000, until=2.0)
    assert flow.completed


def test_tcp10_not_ecn_capable():
    topo = make_star()
    ctx = make_ctx(topo)
    sender = Tcp10Sender(Flow(0, 0, 1, 100_000, 0.0), ctx)
    assert not sender.ecn_capable()
    assert not sender.build_packet(0).ecn_capable


def test_tcp10_initial_window_is_ten():
    topo = make_star()
    ctx = make_ctx(topo)
    sender = Tcp10Sender(Flow(0, 0, 1, 1_000_000, 0.0), ctx)
    assert sender.cwnd == 10.0


def test_tcp10_under_contention():
    topo = make_star(3)
    ctx = make_ctx(topo)
    scheme = Tcp10()
    flows = [Flow(0, 0, 2, 300_000, 0.0), Flow(1, 1, 2, 300_000, 0.0)]
    for f in flows:
        scheme.start_flow(f, ctx)
    topo.sim.run(until=5.0)
    assert all(f.completed for f in flows)


# -- Halfback -----------------------------------------------------------------


def test_halfback_paces_out_small_flow():
    topo = make_star()
    ctx = make_ctx(topo)
    sender = HalfbackSender(Flow(0, 0, 1, 100_000, 0.0), ctx)
    assert sender.paced_out


def test_halfback_large_flow_uses_slow_start():
    topo = make_star()
    ctx = make_ctx(topo)
    sender = HalfbackSender(Flow(0, 0, 1, PACE_OUT_LIMIT + 1, 0.0), ctx)
    assert not sender.paced_out


def test_halfback_small_flow_fast_completion():
    """A paced-out flow finishes in about one RTT plus serialization."""
    f_halfback, _, topo = run_single_flow(Halfback(), 100_000)
    f_dctcp, _, _ = run_single_flow(Dctcp(), 100_000)
    assert f_halfback.completed
    assert f_halfback.fct < f_dctcp.fct  # beats slow start


def test_halfback_large_flow_completes():
    flow, ctx, _ = run_single_flow(Halfback(), 1_000_000, until=5.0)
    assert flow.completed


def test_halfback_backwards_redundancy_under_loss():
    """With a lossy switch, the backwards retransmission repairs tail
    losses without waiting for RTO."""
    from repro.sim.network import QueueConfig
    from repro.sim.topology import star
    from repro.units import gbps, us
    qcfg = QueueConfig(buffer_bytes=15_000)
    topo = star(3, rate=gbps(40), prop_delay=us(4), qcfg=qcfg)
    ctx = make_ctx(topo, min_rto=50e-3)  # make timeouts very expensive
    scheme = Halfback()
    flows = [Flow(0, 0, 2, 100_000, 0.0), Flow(1, 1, 2, 100_000, 0.0)]
    for f in flows:
        scheme.start_flow(f, ctx)
    topo.sim.run(until=1.0)
    assert all(f.completed for f in flows)
    assert max(f.fct for f in flows) < 40e-3  # no full RTO was needed


def test_halfback_redundancy_is_scavenger_class():
    topo = make_star()
    ctx = make_ctx(topo)
    sender = HalfbackSender(Flow(0, 0, 1, 50_000, 0.0), ctx)

    class FakePort:
        def __init__(self):
            self.sent = []

        def send(self, pkt):
            self.sent.append(pkt)
            return True

    fake = FakePort()
    sender.host.uplink = fake
    sender._backwards_round()
    (pkt,) = fake.sent
    assert sender.pkts_retransmitted == 1
    assert pkt.lcp
    assert pkt.priority == 7


def test_halfback_backwards_sweep_wraps():
    """After covering the whole tail once, the backwards pointer wraps
    and keeps repairing until everything is delivered."""
    topo = make_star()
    ctx = make_ctx(topo)
    sender = HalfbackSender(Flow(0, 0, 1, 30_000, 0.0), ctx)  # 21 packets

    class FakePort:
        def __init__(self):
            self.sent = []

        def send(self, pkt):
            self.sent.append(pkt)
            return True

    fake = FakePort()
    sender.host.uplink = fake
    # drive the backwards loop manually across a full sweep
    for _ in range(sender.n_packets):
        sender._backwards_round()
    first_sweep = [p.seq for p in fake.sent]
    assert first_sweep == list(range(sender.n_packets - 1, -1, -1))
    # pointer wrapped: a re-scheduled round was queued; run it
    topo.sim.run(until=1.0)
    assert len(fake.sent) > sender.n_packets  # second sweep began


def test_halfback_holds_one_pending_handle():
    """The sender used to keep the handle of every pace-out packet and
    every fired backwards round until ``stop()``: one ``Event`` retained
    per redundant packet."""
    from repro.sim.engine import Event
    topo = make_star()
    ctx = make_ctx(topo)
    sender = HalfbackSender(Flow(0, 0, 1, 50_000, 0.0), ctx)
    topo.network.hosts[0].register(0, sender)
    sender.start()                    # no receiver: nothing is ever ACKed
    topo.sim.run(until=sender.base_rtt * 3)
    assert sender.pkts_retransmitted > sender.n_packets   # rounds did fire

    def events(value):
        if isinstance(value, Event):
            return [value]
        if isinstance(value, (list, tuple)):
            return [e for item in value for e in events(item)]
        return []

    held = [e for value in vars(sender).values() for e in events(value)]
    assert len(held) == 1 and not held[0].cancelled
    sender.stop()
    assert held[0].cancelled
