"""PPT receiver edge cases: duplicate/odd LP arrivals, mixed ordering."""

from conftest import make_ctx, make_star
from repro.core.ppt import LP_ACK_DELAY, PptReceiver
from repro.sim.packet import Packet
from repro.transport.base import Flow


def make_receiver(size=200_000):
    topo = make_star()
    ctx = make_ctx(topo)
    receiver = PptReceiver(Flow(0, 0, 1, size, 0.0), ctx)
    captured = []
    ctx.network.send_control = captured.append
    return receiver, captured, ctx, topo


def lp(seq, ce=False):
    pkt = Packet(0, 0, 1, seq, 1500)
    pkt.lcp = True
    pkt.ecn_ce = ce
    return pkt


def hp(seq, ce=False):
    pkt = Packet(0, 0, 1, seq, 1500)
    pkt.ecn_ce = ce
    return pkt


def test_odd_lp_packet_leaves_pending_ack():
    receiver, captured, ctx, topo = make_receiver()
    receiver.on_packet(lp(10))
    assert receiver.lp_acks_sent == 0       # waiting for the pair
    receiver.on_packet(lp(11))
    assert receiver.lp_acks_sent == 1


def test_duplicate_lp_still_counts_toward_pair():
    """A duplicate LP arrival is acknowledged (the kernel ACKs what it
    receives) even though delivery is deduplicated."""
    receiver, captured, ctx, topo = make_receiver()
    receiver.on_packet(lp(10))
    receiver.on_packet(lp(10))
    assert receiver.lp_acks_sent == 1
    assert len(receiver.delivered) == 1
    assert receiver.dup_pkts_received == 1


def test_mixed_hp_lp_completion():
    receiver, captured, ctx, topo = make_receiver(size=4308)  # 3 packets
    receiver.on_packet(hp(0))
    receiver.on_packet(lp(2))
    assert not receiver.done
    receiver.on_packet(lp(1))
    assert receiver.done
    assert len(ctx.completed) == 1


def test_hp_acks_unaffected_by_lp_pending():
    """High-priority packets always get their own immediate ACK (the
    standard DCTCP path is isolated from the 2:1 LP rule)."""
    receiver, captured, ctx, topo = make_receiver()
    receiver.on_packet(lp(50))       # one pending LP, no LP-ACK yet
    receiver.on_packet(hp(0))
    hp_acks = [a for a in captured if not a.lcp]
    assert len(hp_acks) == 1
    assert hp_acks[0].ack_seq == 1


def test_lp_ack_cum_reflects_hp_progress():
    receiver, captured, ctx, topo = make_receiver()
    for seq in range(4):
        receiver.on_packet(hp(seq))
    receiver.on_packet(lp(40))
    receiver.on_packet(lp(41))
    lp_acks = [a for a in captured if a.lcp]
    assert lp_acks[-1].ack_seq == 4  # cumulative point includes HP data


def test_ce_flag_reset_after_each_lp_ack():
    receiver, captured, ctx, topo = make_receiver()
    receiver.on_packet(lp(10, ce=True))
    receiver.on_packet(lp(11))
    receiver.on_packet(lp(12))
    receiver.on_packet(lp(13))
    lp_acks = [a for a in captured if a.lcp]
    assert lp_acks[0].ecn_ce is True
    assert lp_acks[1].ecn_ce is False  # the mark does not leak forward


def test_odd_tail_flushed_by_delayed_ack_timer():
    """The last LP packet of an odd-count batch must be acknowledged by
    the delayed-ACK timer, not stranded until the sender's RTO."""
    receiver, captured, ctx, topo = make_receiver()
    receiver.on_packet(lp(10))
    assert receiver.lp_acks_sent == 0        # still waiting for the pair
    # run only to 1.5x the delayed-ACK delay — well under min_rto, so an
    # ACK here can only have come from the flush timer
    assert LP_ACK_DELAY * 1.5 < ctx.config.min_rto
    topo.sim.run(until=LP_ACK_DELAY * 1.5)
    assert receiver.lp_acks_sent == 1
    [ack] = [a for a in captured if a.lcp]
    assert ack.sack == (10,)


def test_delayed_flush_cancelled_when_pair_arrives():
    """The pair completing the 2:1 rule cancels the pending timer — no
    duplicate ACK fires later."""
    receiver, captured, ctx, topo = make_receiver()
    receiver.on_packet(lp(10))
    receiver.on_packet(lp(11))
    assert receiver.lp_acks_sent == 1
    topo.sim.run(until=LP_ACK_DELAY * 4)
    assert receiver.lp_acks_sent == 1        # timer did not double-ACK
    assert receiver._lp_flush_event is None


def test_completion_via_lp_path_flushes_pending_tail():
    receiver, captured, ctx, topo = make_receiver(size=4308)  # 3 packets
    receiver.on_packet(hp(0))
    receiver.on_packet(hp(1))
    receiver.on_packet(lp(2))                # completes the flow, odd tail
    assert receiver.done
    [ack] = [a for a in captured if a.lcp]
    assert ack.sack == (2,)                  # flushed at completion...
    assert receiver._lp_flush_event is None  # ...with no timer left armed


def test_completion_via_hp_path_flushes_pending_tail():
    receiver, captured, ctx, topo = make_receiver(size=4308)  # 3 packets
    receiver.on_packet(lp(2))                # odd tail arrives first
    receiver.on_packet(hp(0))
    receiver.on_packet(hp(1))                # completes via the HP path
    assert receiver.done
    assert [a.sack for a in captured if a.lcp] == [(2,)]
    assert receiver._lp_flush_event is None
