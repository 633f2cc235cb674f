"""Tests for RC3's dual-loop behaviour."""

import pytest

from conftest import make_ctx, make_star, run_single_flow
from repro.transport.base import Flow
from repro.transport.rc3 import Rc3, Rc3Sender, rc3_priority


def test_priority_levels_from_tail():
    assert rc3_priority(0) == 5
    assert rc3_priority(39) == 5
    assert rc3_priority(40) == 6
    assert rc3_priority(439) == 6
    assert rc3_priority(440) == 7
    assert rc3_priority(10**6) == 7


def test_lp_loop_sends_from_tail():
    topo = make_star()
    ctx = make_ctx(topo)
    flow = Flow(0, 0, 1, 300_000, 0.0)
    scheme = Rc3()
    scheme.start_flow(flow, ctx)
    topo.sim.run(until=20e-6)  # within the first RTT
    sender = topo.network.hosts[0].endpoints[0]
    assert sender.lcp.lp_pkts_sent > 0
    # LP packets were taken from the high end of the sequence space
    # (the very last seqs may already be ACKed after one RTT)
    if sender.lcp.outstanding:
        assert max(sender.lcp.outstanding) > sender.n_packets * 0.8


def test_lp_packets_not_ecn_capable_and_low_priority():
    topo = make_star()
    ctx = make_ctx(topo)
    sender = Rc3Sender(Flow(0, 0, 1, 300_000, 0.0), ctx)

    class FakePort:
        def __init__(self):
            self.sent = []

        def send(self, pkt):
            self.sent.append(pkt)
            return True

    fake = FakePort()
    sender.host.uplink = fake  # capture instead of transmitting
    sender._lp_transmit(100)
    (pkt,) = fake.sent
    assert pkt.lcp
    assert not pkt.ecn_capable
    assert pkt.priority >= 5


def test_lp_attempts_each_packet_once():
    """The descending pointer never revisits a sequence number."""
    topo = make_star()
    ctx = make_ctx(topo)
    flow = Flow(0, 0, 1, 500_000, 0.0)
    scheme = Rc3()
    scheme.start_flow(flow, ctx)
    topo.sim.run(until=1.0)
    sender = topo.network.hosts[0].endpoints[0]
    # every LP transmission had a distinct seq: transmissions can exceed
    # the flow length only through the primary loop, never the LP loop
    assert sender.lcp.lp_pkts_sent <= sender.n_packets


def test_loops_cross_and_lp_stops():
    flow, ctx, topo = run_single_flow(Rc3(), 200_000, until=2.0)
    assert flow.completed
    sender = topo.network.hosts[0].endpoints[0]
    # crossing closes the LP loop, and so does finishing
    assert not sender.lcp.active
    assert sender.lcp.loops_opened == 1   # RC3 never re-opens


def test_lp_speeds_up_solo_flow():
    """On an idle network the LP loop fills the slow-start gap, so RC3
    should beat plain DCTCP for a BDP-scale flow."""
    from repro.transport.dctcp import Dctcp
    f_dctcp, _, _ = run_single_flow(Dctcp(), 120_000)
    f_rc3, _, _ = run_single_flow(Rc3(), 120_000)
    assert f_rc3.fct < f_dctcp.fct


def test_completion_possible_via_lp_only_acks():
    flow, ctx, topo = run_single_flow(Rc3(), 80_000, until=1.0)
    assert flow.completed


def test_large_flow_completes():
    flow, ctx, _ = run_single_flow(Rc3(), 3_000_000, until=5.0)
    assert flow.completed
