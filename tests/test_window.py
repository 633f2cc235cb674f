"""Tests for the reliable window transport machinery."""

import pytest

from conftest import make_ctx, make_star, run_single_flow
from repro.transport.base import Flow
from repro.sim.packet import ACK, DATA, HEADER_BYTES, Packet
from repro.transport.base import Flow
from repro.transport.dctcp import Dctcp
from repro.transport.window import WindowReceiver, WindowSender


class PlainScheme(Dctcp):
    """NewReno-ish scheme using the raw WindowSender."""

    name = "plain"
    sender_cls = WindowSender


def test_single_packet_flow_completes():
    flow, ctx, topo = run_single_flow(PlainScheme(), 1000)
    assert flow.completed
    assert flow.fct == pytest.approx(topo.base_rtt / 2, rel=0.5)


def test_multi_packet_flow_completes():
    flow, ctx, _ = run_single_flow(PlainScheme(), 100_000)
    assert flow.completed
    assert len(ctx.completed) == 1


def test_sender_stops_after_completion(attached):
    flow, ctx, topo = run_single_flow(PlainScheme(), 50_000)
    sender = attached.senders[0]
    assert sender.finished
    assert sender._rto_event is None


def test_packet_count_and_sizes():
    flow, ctx, topo = run_single_flow(PlainScheme(), 10_000)
    receiver = topo.network.hosts[1].endpoints[0]
    n = flow.n_packets(ctx.config.mss)
    assert receiver.n_packets == n
    assert len(receiver.delivered) == n


def test_last_packet_is_short():
    topo = make_star()
    ctx = make_ctx(topo)
    flow = Flow(0, 0, 1, 2000, 0.0)  # payload/packet = 1436 -> 2 packets
    sender = WindowSender(flow, ctx)
    last = sender.build_packet(1)
    assert last.size < ctx.config.mss
    assert last.size == (2000 - 1436) + HEADER_BYTES


def test_first_syscall_recorded():
    flow, ctx, _ = run_single_flow(PlainScheme(), 50_000)
    assert flow.first_syscall_bytes == 50_000


def test_first_syscall_capped_by_send_buffer():
    flow, ctx, _ = run_single_flow(PlainScheme(), 50_000,
                                   send_buffer_bytes=10_000)
    assert flow.first_syscall_bytes == 10_000


def test_send_buffer_limits_inflight_window():
    """With a small send buffer the sender can only expose a window of
    packets beyond the cumulative ack point."""
    topo = make_star()
    ctx = make_ctx(topo, send_buffer_bytes=14_360)  # 10 packets of payload
    flow = Flow(0, 0, 1, 1_000_000, 0.0)
    sender = WindowSender(flow, ctx)
    assert sender.buffer_packets == 10
    assert sender.buffer_end() == 10
    sender.cum = 50
    assert sender.buffer_end() == 60


def test_retransmission_after_loss(attached):
    """Two senders overload a tiny switch buffer: losses must be
    recovered and both flows finish."""
    from repro.sim.network import QueueConfig
    from repro.sim.topology import star
    from repro.units import gbps, us
    qcfg = QueueConfig(buffer_bytes=15_000)  # 10-packet switch buffer
    topo = star(3, rate=gbps(40), prop_delay=us(4), qcfg=qcfg)
    ctx = make_ctx(topo)
    scheme = PlainScheme()
    flows = [Flow(0, 0, 2, 300_000, 0.0), Flow(1, 1, 2, 300_000, 0.0)]
    for flow in flows:
        scheme.start_flow(flow, ctx)
    topo.sim.run(until=2.0)
    assert all(f.completed for f in flows)
    retransmits = sum(attached.senders[i].pkts_retransmitted for i in (0, 1))
    assert retransmits > 0


def test_duplicate_data_counted_once():
    flow, ctx, topo = run_single_flow(PlainScheme(), 20_000)
    receiver = topo.network.hosts[1].endpoints[0]
    # replay an old packet after completion: no double-complete
    pkt = Packet(0, 0, 1, 0, 1500)
    receiver.on_packet(pkt)
    assert len(ctx.completed) == 1


def test_receiver_ignores_non_data():
    topo = make_star()
    ctx = make_ctx(topo)
    flow = Flow(0, 0, 1, 10_000, 0.0)
    receiver = WindowReceiver(flow, ctx)
    receiver.on_packet(Packet(0, 0, 1, 0, 64, kind=ACK))
    assert not receiver.delivered


def test_cum_ack_advances_through_holes():
    topo = make_star()
    ctx = make_ctx(topo)
    flow = Flow(0, 0, 1, 100_000, 0.0)
    receiver = WindowReceiver(flow, ctx)
    receiver.on_packet(Packet(0, 0, 1, 0, 1500))
    receiver.on_packet(Packet(0, 0, 1, 2, 1500))
    assert receiver.cum == 1
    receiver.on_packet(Packet(0, 0, 1, 1, 1500))
    assert receiver.cum == 3


def test_rto_recovers_total_blackout():
    """If every in-flight packet is lost, the RTO path restarts the flow."""
    topo = make_star()
    ctx = make_ctx(topo)
    flow = Flow(0, 0, 1, 30_000, 0.0)
    sender = WindowSender(flow, ctx)
    receiver = WindowReceiver(flow, ctx)
    # do NOT register the sender at first: all ACKs are dropped
    topo.network.hosts[1].register(0, receiver)
    sender.start()
    topo.sim.run(until=ctx.config.min_rto / 2)
    assert not flow.completed
    # now register: RTO fires, everything is resent, flow completes
    topo.network.hosts[0].register(0, sender)
    topo.sim.run(until=1.0)
    assert flow.completed


def test_srtt_stays_near_base_rtt_uncontended(attached):
    """Solo flow: the smoothed RTT reflects base RTT plus (at most) its
    own slow-start self-queueing at the NIC."""
    flow, ctx, topo = run_single_flow(PlainScheme(), 200_000)
    sender = attached.senders[0]
    assert topo.base_rtt * 0.8 <= sender.srtt <= topo.base_rtt * 6


def test_slow_start_doubles_window():
    topo = make_star()
    ctx = make_ctx(topo)
    flow = Flow(0, 0, 1, 1_000_000, 0.0)
    sender = WindowSender(flow, ctx)
    w0 = sender.cwnd
    for _ in range(int(w0)):
        sender.cc_on_ack(False, 1e-5)
    assert sender.cwnd == pytest.approx(2 * w0)


def test_congestion_avoidance_linear():
    topo = make_star()
    ctx = make_ctx(topo)
    sender = WindowSender(Flow(0, 0, 1, 1_000_000, 0.0), ctx)
    sender.ssthresh = 10.0
    sender.cwnd = 10.0
    for _ in range(10):
        sender.cc_on_ack(False, 1e-5)
    assert sender.cwnd == pytest.approx(11.0, rel=0.05)


def test_max_cwnd_cap():
    topo = make_star()
    ctx = make_ctx(topo, max_cwnd_packets=50)
    sender = WindowSender(Flow(0, 0, 1, 10_000_000, 0.0), ctx)
    for _ in range(200):
        sender.cc_on_ack(False, 1e-5)
    assert sender.cwnd <= 50


# ---------------------------------------------------------------------------
# Karn's rule: ACKs of retransmitted seqs never feed the srtt estimator
# ---------------------------------------------------------------------------


def _make_ack_for(sender, seq, *, sent_at, ack_seq):
    ack = Packet(flow_id=sender.flow.flow_id, src=1, dst=0, seq=seq,
                 size=HEADER_BYTES, kind=ACK)
    ack.sent_at = sent_at
    ack.ack_seq = ack_seq
    return ack


def test_karn_skips_srtt_sample_for_retransmitted_seq():
    topo = make_star()
    ctx = make_ctx(topo)
    sender = WindowSender(Flow(0, 0, 1, 100_000, 0.0), ctx)
    sender.transmit(0)
    sender.transmit(0, retransmit=True)
    srtt_before = sender.srtt
    # an echoed sent_at from *either* copy is ambiguous; this one would
    # read as a huge (stale-original) sample
    sender.handle_ack(_make_ack_for(sender, 0, sent_at=-0.5, ack_seq=1))
    assert sender.srtt == srtt_before


def test_fresh_seq_still_feeds_srtt():
    topo = make_star()
    ctx = make_ctx(topo)
    sender = WindowSender(Flow(0, 0, 1, 100_000, 0.0), ctx)
    sender.transmit(0)
    srtt_before = sender.srtt
    sender.handle_ack(_make_ack_for(sender, 0, sent_at=-0.5, ack_seq=1))
    assert sender.srtt != srtt_before


def test_lossy_run_srtt_never_collapses_below_base_rtt(attached):
    from repro.faults import LossInjector
    import random as _random

    topo = make_star()
    port = topo.network.port_named("host0->sw0")
    LossInjector(topo.sim, port, 0.08, _random.Random("karn")).attach()
    flow, ctx, topo = run_single_flow(PlainScheme(), 400_000, topo=topo,
                                      until=5.0)
    assert flow.completed
    sender = attached.senders[0]
    assert sender.pkts_retransmitted > 0
    # Karn's rule keeps ambiguous samples out: the smoothed RTT can only
    # sit at or above the propagation floor
    assert sender.srtt >= sender.base_rtt
