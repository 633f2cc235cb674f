"""Tests for the LCP controller (intermittent init + EWD, §3)."""

import pytest

from conftest import make_ctx, make_star, run_single_flow
from repro.core.ppt import Ppt, PptSender
from repro.transport.base import Flow
from repro.transport.window import INIT_CWND


def make_ppt_sender(size=300_000, scheme=None, **cfg):
    topo = make_star()
    ctx = make_ctx(topo, **cfg)
    scheme = scheme or Ppt()
    sender = PptSender(Flow(0, 0, 1, size, 0.0), ctx, scheme)
    return sender, topo, ctx


def test_case1_initial_window_is_bdp_minus_iw():
    """§3.1: at flow start, I = BDP - init_cwnd (unidentified flow,
    so the loop opens immediately)."""
    sender, topo, ctx = make_ppt_sender(size=90_000)
    lcp = sender.lcp
    topo.network.hosts[0].register(0, sender)
    sender.start()
    topo.sim.run(until=1e-6)  # the case-1 open fires at t=0
    expected = ctx.bdp_packets(sender.flow) - INIT_CWND
    assert lcp.active
    assert lcp.initial_window == min(expected, sender.n_packets)


def test_case1_delayed_for_identified_large_flow():
    """Identified-large flows open their first loop in the 2nd RTT."""
    sender, topo, ctx = make_ppt_sender(size=5_000_000)
    assert sender.identified_large
    topo.network.hosts[0].register(0, sender)
    sender.start()
    topo.sim.run(until=sender.base_rtt * 0.5)
    assert not sender.lcp.active
    topo.sim.run(until=sender.base_rtt * 1.5)
    assert sender.lcp.active or sender.lcp.loops_opened > 0


def test_case1_not_delayed_without_identification():
    scheme = Ppt(identification=False)
    sender, topo, ctx = make_ppt_sender(size=5_000_000, scheme=scheme)
    assert not sender.identified_large
    topo.network.hosts[0].register(0, sender)
    sender.start()
    topo.sim.run(until=1e-6)
    assert sender.lcp.active


def test_case2_eq2_window():
    """§3.1 Eq. 2: I = (1/2 - alpha_min) * W_max."""
    sender, topo, ctx = make_ppt_sender()
    lcp = sender.lcp
    sender.startup_done = True
    sender.wmax = 64.0
    sender.alpha = 0.1
    sender.alpha_history.extend([0.3, 0.2, 0.1])
    lcp.on_window_update()
    assert lcp.active
    assert lcp.initial_window == int((0.5 - 0.1) * 64.0)


def test_case2_no_loop_when_alpha_high():
    """alpha_min > 1/2 means no spare bandwidth: Eq. 2 gives I <= 0."""
    sender, topo, ctx = make_ppt_sender()
    sender.startup_done = True
    sender.wmax = 64.0
    sender.alpha = 0.8
    sender.alpha_history.extend([0.9, 0.8])
    sender.lcp.on_window_update()
    assert not sender.lcp.active


def test_case2_requires_alpha_at_minimum():
    sender, topo, ctx = make_ppt_sender()
    sender.startup_done = True
    sender.wmax = 64.0
    sender.alpha = 0.4              # above the running minimum
    sender.alpha_history.extend([0.1, 0.3, 0.4])
    sender.lcp.on_window_update()
    assert not sender.lcp.active


def test_case2_reinit_tops_up_active_loop():
    """A decayed active loop is re-paced, counting in-flight packets."""
    sender, topo, ctx = make_ppt_sender()
    lcp = sender.lcp
    sender.startup_done = True
    sender.wmax = 64.0
    sender.alpha = 0.0
    sender.alpha_history.extend([0.2, 0.0])
    lcp.on_window_update()
    first = lcp.loops_opened
    assert lcp.active
    lcp.on_window_update()
    assert lcp.loops_opened == first + 1  # re-initialised


def test_ewd_pacing_spreads_over_one_rtt():
    """With EWD the initial window is paced at I/RTT, not burst."""
    sender, topo, ctx = make_ppt_sender()
    topo.network.hosts[0].register(0, sender)
    sender.start()
    topo.sim.run(until=1e-9)
    nic = topo.network.hosts[0].uplink
    # immediately after start only the HCP burst (init_cwnd) has entered
    # the NIC; the LCP window trickles in over the next RTT
    sent_now = nic.pkts_sent + len(nic.mux)
    assert sent_now <= INIT_CWND + 2
    topo.sim.run(until=sender.base_rtt * 1.2)
    assert sender.lcp.lp_pkts_sent > 5


def test_no_ewd_bursts_at_line_rate():
    scheme = Ppt(ewd=False)
    sender, topo, ctx = make_ppt_sender(size=90_000, scheme=scheme)
    topo.network.hosts[0].register(0, sender)
    sender.start()
    topo.sim.run(until=1e-9)
    nic = topo.network.hosts[0].uplink
    queued = nic.pkts_sent + len(nic.mux)
    assert queued > INIT_CWND + 10  # whole I burst at once


def test_lp_ack_releases_one_packet():
    flow, ctx, topo = run_single_flow(Ppt(), 300_000, until=1.0)
    sender = topo.network.hosts[0].endpoints[0]
    # EWD: one LP packet per LP-ACK; receiver ACKs 2:1, so LP sends are
    # bounded by initial windows + acks received
    lcp = sender.lcp
    assert lcp.lp_acks_received > 0
    assert flow.completed


def test_ece_suppression():
    sender, topo, ctx = make_ppt_sender()
    lcp = sender.lcp
    lcp.active = True
    from repro.sim.packet import ACK, Packet
    ack = Packet(0, 1, 0, 5, 64, kind=ACK)
    ack.lcp = True
    ack.ecn_ce = True
    ack.ack_seq = 0
    ack.sack = (5,)
    sent_before = lcp.lp_pkts_sent
    lcp.on_lp_ack(ack)
    assert lcp.lp_acks_suppressed == 1
    assert lcp.lp_pkts_sent == sent_before  # no new opportunistic packet


def test_no_ecn_variant_ignores_ece():
    scheme = Ppt(lcp_ecn=False)
    sender, topo, ctx = make_ppt_sender(scheme=scheme)
    topo.network.hosts[0].register(0, sender)
    lcp = sender.lcp
    lcp.active = True
    from repro.sim.packet import ACK, Packet
    ack = Packet(0, 1, 0, 5, 64, kind=ACK)
    ack.lcp = True
    ack.ecn_ce = True
    ack.ack_seq = 0
    ack.sack = (5,)
    sent_before = lcp.lp_pkts_sent
    lcp.on_lp_ack(ack)
    assert lcp.lp_pkts_sent == sent_before + 1  # keeps injecting


def test_termination_after_two_silent_rtts():
    sender, topo, ctx = make_ppt_sender()
    lcp = sender.lcp
    topo.network.hosts[0].register(0, sender)
    # open a loop but never deliver any LP ACKs (receiver not registered)
    lcp.open_loop(20)
    assert lcp.active
    topo.sim.run(until=sender.base_rtt * 10)
    assert not lcp.active


def test_loop_closes_when_crossed():
    """When the tail pointer meets the HCP head, the loop closes."""
    sender, topo, ctx = make_ppt_sender(size=20_000)  # 14 packets
    lcp = sender.lcp
    sender.send_ptr = 13  # HCP already covering everything
    lcp.open_loop(10)
    assert lcp.active
    assert lcp._send_one() is False
    assert not lcp.active


def test_stale_lp_outstanding_purged():
    sender, topo, ctx = make_ppt_sender()
    lcp = sender.lcp
    lcp.active = True
    lcp.last_lp_ack = 0.0
    lcp.outstanding[42] = -1.0  # ancient
    topo.sim.now = 1.0
    lcp.last_lp_ack = 1.0
    lcp._termination_check()
    assert 42 not in lcp.outstanding


def test_shutdown_cancels_everything():
    sender, topo, ctx = make_ppt_sender()
    lcp = sender.lcp
    topo.network.hosts[0].register(0, sender)
    lcp.open_loop(20)
    lcp.close()
    assert not lcp.active
    assert not lcp.outstanding
    events = topo.sim.run(until=sender.base_rtt * 5)
    assert lcp.lp_pkts_sent <= 1  # nothing further was paced out
