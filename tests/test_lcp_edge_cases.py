"""Additional LCP edge cases: ECE pace-cancel, tiny flows, buffer
limits, and interaction with the HCP pointer — and the tail-loop
mechanism (``repro.transport.window.TailLoop``) LCP shares with RC3's
filler and the hypothetical-DCTCP oracle."""

import pytest

from conftest import make_ctx, make_star
from repro.core.hypothetical import _HypotheticalSender
from repro.core.ppt import Ppt, PptSender
from repro.experiments.runner import run
from repro.experiments.scenarios import all_to_all_scenario, sim_config
from repro.sim.engine import EventChain
from repro.sim.packet import ACK, Packet
from repro.transport.base import Flow, TransportConfig
from repro.transport.window import INIT_CWND
from repro.workloads.distributions import MEMCACHED_W1


def make_sender(size=90_000, scheme=None, **cfg):
    topo = make_star()
    ctx = make_ctx(topo, **cfg)
    sender = PptSender(Flow(0, 0, 1, size, 0.0), ctx, scheme or Ppt())
    topo.network.hosts[0].register(0, sender)
    return sender, topo, ctx


def make_oracle(size=4_000_000, mw=40.0):
    topo = make_star()
    ctx = make_ctx(topo)
    sender = _HypotheticalSender(Flow(0, 0, 1, size, 0.0), ctx,
                                 mw=mw, fill_factor=1.0)
    topo.network.hosts[0].register(0, sender)
    return sender, topo, ctx


def paced_entries(sim):
    """Live heap entries that belong to a paced burst (these fixtures
    start their one flow by hand, so no other chain exists)."""
    return [time for time, fn, _args in sim.live_entries()
            if isinstance(getattr(fn, "__self__", None), EventChain)]


def lp_ack(seq, *, ce=False, ack_seq=0, sack=None):
    ack = Packet(0, 1, 0, seq, 64, kind=ACK)
    ack.lcp = True
    ack.ecn_ce = ce
    ack.ack_seq = ack_seq
    ack.sack = sack or (seq,)
    return ack


def test_ece_cancels_pending_paced_window():
    """An ECE'd LP-ACK must cancel the rest of the paced initial window
    ("decrease the sending rate early"), not just skip one send."""
    sender, topo, ctx = make_sender()
    sender.start()
    topo.sim.run(until=1e-9)          # loop opened, window paced out
    lcp = sender.lcp
    assert lcp.initial_window - lcp.lp_pkts_sent > 5   # still to be paced
    assert len(paced_entries(topo.sim)) == 1
    lcp.on_lp_ack(lp_ack(80, ce=True))
    # all remaining paced sends dropped
    assert not paced_entries(topo.sim)
    sent = lcp.lp_pkts_sent
    topo.sim.run(until=sender.base_rtt)
    assert lcp.lp_pkts_sent == sent


def test_non_ece_ack_keeps_pacing():
    sender, topo, ctx = make_sender()
    sender.start()
    topo.sim.run(until=1e-9)
    lcp = sender.lcp
    sent_before = lcp.lp_pkts_sent
    lcp.on_lp_ack(lp_ack(80, ce=False))
    assert lcp.lp_pkts_sent == sent_before + 1


def test_single_packet_flow_never_opens_useful_loop():
    """A 1-packet flow is fully covered by the HCP burst; the tail
    pointer is already crossed so the loop sends nothing."""
    sender, topo, ctx = make_sender(size=500)
    sender.start()
    topo.sim.run(until=1e-6)
    assert sender.lcp.lp_pkts_sent == 0


def test_lp_ack_sack_marks_all_listed():
    sender, topo, ctx = make_sender()
    lcp = sender.lcp
    lcp.outstanding[40] = 0.0
    lcp.outstanding[41] = 0.0
    lcp.on_lp_ack(lp_ack(41, sack=(40, 41)))
    assert 40 in sender.delivered and 41 in sender.delivered
    assert not lcp.outstanding


def test_lp_ack_cum_advances_head():
    """The §5.2 snd_nxt tweak: an LP-ACK whose cumulative pointer is
    ahead of the HCP head marks everything below as delivered."""
    sender, topo, ctx = make_sender()
    assert sender.cum == 0
    sender.lcp.on_lp_ack(lp_ack(30, ack_seq=5, sack=(30,)))
    assert sender.cum == 5
    assert {0, 1, 2, 3, 4} <= sender.delivered


def test_lp_ack_below_cum_adds_nothing_to_the_scoreboard():
    """An LP copy of a seq the primary already delivered is acknowledged
    after ``cum`` passed it: it must stay out of ``sacked``, where the
    ``delivered`` view would count it twice."""
    sender, topo, ctx = make_sender()
    sender.lcp.on_lp_ack(lp_ack(30, ack_seq=5, sack=(30,)))
    sender.lcp.on_lp_ack(lp_ack(4, ack_seq=5, sack=(3, 4)))
    assert sender.cum == 5 and sender.sacked == {30}
    assert len(sender.delivered) == 6


def test_lcp_respects_send_buffer_window():
    """With a small send buffer, the tail pointer cannot reach past the
    buffered window."""
    sender, topo, ctx = make_sender(size=1_000_000,
                                    send_buffer_bytes=28_720,  # 20 packets
                                    identification_threshold=10**9)
    lcp = sender.lcp
    lcp.open_loop(50)
    seq = lcp.pick_tail()
    assert seq is not None
    assert seq < sender.buffer_end()
    assert sender.buffer_end() == 20


def test_completion_via_lp_acks_stops_sender():
    sender, topo, ctx = make_sender(size=3000)  # 3 packets
    sender.lcp.on_lp_ack(lp_ack(2, ack_seq=3, sack=(0, 1, 2)))
    assert sender.finished


def test_loops_counted():
    sender, topo, ctx = make_sender()
    sender.start()
    topo.sim.run(until=1e-6)
    assert sender.lcp.loops_opened >= 1


def test_open_loop_rejects_nonpositive_window():
    sender, topo, ctx = make_sender()
    assert not sender.lcp.open_loop(0)
    assert not sender.lcp.open_loop(-5)
    assert not sender.lcp.active


class _ProbeCountingSet(set):
    """``sacked`` with a counter on membership tests.  The fixtures keep
    ``cum`` at 0, so no ``< cum`` comparison settles a seq and every
    step of the tail scan is one probe."""

    probes = 0

    def __contains__(self, seq):
        self.probes += 1
        return super().__contains__(seq)


def _rescanning_tail_pick(lcp):
    """``pick_tail`` as it was before the cursor: rescan the whole
    delivered tail from the end of the buffer (the reference)."""
    sender = lcp.sender
    seq = sender.buffer_end() - 1
    while seq >= 0:
        if seq <= sender.send_ptr:
            return None
        delivered = (seq < sender.cum
                     or set.__contains__(sender.sacked, seq))
        if (not delivered
                and seq not in sender.outstanding
                and seq not in lcp.outstanding):
            return seq
        seq -= 1
    return None


def _check_tail_pick_against_rescan(sender):
    lcp = sender.lcp
    sender.sacked = sacked = _ProbeCountingSet()
    sender.send_ptr = 10                  # HCP is starved near the head
    sender.outstanding[11] = 0.0
    in_flight_cap = 8
    worst = picks = 0
    while True:
        expected = _rescanning_tail_pick(lcp)
        sacked.probes = 0
        seq = lcp.pick_tail()
        worst = max(worst, sacked.probes)
        assert seq == expected
        if seq is None:
            break
        picks += 1
        lcp.outstanding[seq] = 0.0
        if len(lcp.outstanding) > in_flight_cap:
            # the oldest opportunistic packet is LP-ACKed
            oldest = next(iter(lcp.outstanding))
            del lcp.outstanding[oldest]
            sacked.add(oldest)
    # every seq above the HCP pointer except its one outstanding packet
    assert picks == sender.n_packets - 12
    assert worst <= 2 * in_flight_cap


def test_tail_pick_does_not_rescan_the_delivered_tail():
    """One starved multi-MB flow whose tail LCP delivers packet by
    packet: every pick used to walk the whole delivered tail again
    (quadratic — seconds of wall time per flow); the scan now starts
    below it, and picks exactly the seqs the rescan picked."""
    _check_tail_pick_against_rescan(make_sender(size=4_000_000)[0])


def test_oracle_tail_pick_does_not_rescan_the_delivered_tail():
    """The oracle filler kept the quadratic rescan after LCP lost it;
    it now picks through the same code."""
    _check_tail_pick_against_rescan(make_oracle(size=4_000_000)[0])


def test_tail_pick_does_not_rewalk_what_is_in_lp_flight():
    """A 20 k-packet flow whose top 10 k seqs sit in LP flight: each of
    the next 1,000 picks used to walk all of them again (10 M probes);
    the walk now resumes where the last one stopped."""
    sender, topo, ctx = make_sender(size=20_000 * 1436)
    lcp = sender.lcp
    assert sender.n_packets == 20_000
    sender.sacked = sacked = _ProbeCountingSet()
    sender.send_ptr = 10
    for seq in range(19_999, 9_999, -1):
        lcp.outstanding[seq] = 0.0
    for expected in range(9_999, 8_999, -1):
        assert lcp.pick_tail() == expected
        lcp.outstanding[expected] = 0.0
    # one pass over the 10 k in flight, then two probes a pick
    assert sacked.probes <= 10_000 + 2 * 1_000


# -- what restarts the tail walk ---------------------------------------------


def _walk_down(lcp, n, now=0.0):
    """``n`` picks, each sent; returns them."""
    lcp.sim.now = now
    picked = []
    for _ in range(n):
        seq = lcp.pick_tail()
        assert seq == _rescanning_tail_pick(lcp)
        lcp.transmit(seq, 4, True)
        picked.append(seq)
    return picked


def _pick_matches_rescan(lcp, expected):
    assert _rescanning_tail_pick(lcp) == expected
    assert lcp.pick_tail() == expected


def test_purged_seqs_are_picked_again():
    sender, topo, ctx = make_sender()           # 63 packets
    lcp = sender.lcp
    assert _walk_down(lcp, 5, now=0.0) == [62, 61, 60, 59, 58]
    assert _walk_down(lcp, 3, now=1e-5) == [57, 56, 55]
    lcp.purge(5e-6)                             # the first five are lost
    _pick_matches_rescan(lcp, 62)
    lcp.purge(5e-6)                             # drops nothing: no restart
    assert _walk_down(lcp, 5, now=2e-5) == [62, 61, 60, 59, 58]
    _pick_matches_rescan(lcp, 54)


def test_a_closed_loops_seqs_are_picked_again():
    sender, topo, ctx = make_sender()
    lcp = sender.lcp
    assert _walk_down(lcp, 4) == [62, 61, 60, 59]
    lcp.on_lp_ack(lp_ack(61, sack=(61,)))       # delivered, not forgotten
    lcp.close()
    _pick_matches_rescan(lcp, 62)
    assert _walk_down(lcp, 3) == [62, 60, 59]   # 61 was delivered


def test_seqs_an_rto_takes_from_the_primary_are_picked_again():
    sender, topo, ctx = make_sender()
    lcp = sender.lcp
    sender.cwnd = 5.0
    sender.try_send()                           # 0..4
    sender.transmit(60)                         # an out-of-order repair
    assert _walk_down(lcp, 3) == [62, 61, 59]
    sender._on_rto()                            # window cleared, ptr at cum
    assert 60 not in sender.outstanding and sender.send_ptr == 0
    _pick_matches_rescan(lcp, 60)


def test_a_buffer_top_that_rose_is_picked_from_again():
    sender, topo, ctx = make_sender(size=1_000_000,
                                    send_buffer_bytes=28_720,  # 20 packets
                                    identification_threshold=10**9)
    lcp = sender.lcp
    sender.cwnd = 3.0
    sender.try_send()                           # 0..2
    assert _walk_down(lcp, 4) == [19, 18, 17, 16]
    ack = Packet(0, 1, 0, 1, 64, kind=ACK)
    ack.ack_seq = 2                             # cum 0 -> 2: two more buffered
    ack.sent_at = 0.0
    sender.handle_ack(ack)
    assert sender.buffer_end() == 22
    assert _walk_down(lcp, 3) == [21, 20, 15]


# -- a paced burst is one event chain ---------------------------------------


def _start_ppt_burst():
    sender, topo, ctx = make_sender(size=4_000_000)
    assert sender.lcp.open_loop(40)
    return sender, topo, 40


def _start_oracle_burst():
    sender, topo, ctx = make_oracle()
    sender.start()                      # first fill round paces the gap
    gap = int(sender.target_window - INIT_CWND)
    assert gap > 10
    return sender, topo, gap


@pytest.mark.parametrize("start_burst",
                         [_start_ppt_burst, _start_oracle_burst],
                         ids=["ppt", "oracle"])
def test_paced_burst_keeps_one_resident_heap_entry(start_burst):
    """However large the burst, the heap holds its next packet only (it
    used to hold one cancellable handle per packet)."""
    sender, topo, burst = start_burst()
    sim, loop = topo.sim, sender.lcp
    assert len(paced_entries(sim)) == 1
    sim.run(until=sender.base_rtt / 2)
    assert 0 < loop.lp_pkts_sent < burst           # cut mid-burst
    assert len(paced_entries(sim)) == 1
    sim.run(until=sender.base_rtt * 0.999)
    assert loop.lp_pkts_sent == burst
    assert not paced_entries(sim)


def test_reopened_loop_replaces_the_pending_burst():
    sender, topo, ctx = make_sender(size=4_000_000)
    lcp = sender.lcp
    lcp.open_loop(40)
    topo.sim.run(until=sender.base_rtt / 2)
    sent = lcp.lp_pkts_sent
    assert 0 < sent < 40
    lcp.open_loop(10)
    assert len(paced_entries(topo.sim)) == 1
    assert lcp.loops_opened == 2
    topo.sim.run(until=sender.base_rtt * 1.499)
    # the rest of the first burst never went out
    assert lcp.lp_pkts_sent == sent + 10
    assert not paced_entries(topo.sim)


def test_stop_leaves_no_paced_entry():
    sender, topo, ctx = make_sender(size=4_000_000)
    sender.lcp.open_loop(40)
    topo.sim.run(until=sender.base_rtt / 2)
    assert len(paced_entries(topo.sim)) == 1
    sender.stop()
    assert not paced_entries(topo.sim)
    assert not sender.lcp.active and not sender.lcp.outstanding


# -- a first loop with nothing to send is booked, not simulated ---------------

PAYLOAD = TransportConfig().payload_per_packet()


def _loop_state(lcp):
    return (lcp.loops_opened, lcp.initial_window, lcp.last_lp_ack,
            lcp.active, lcp._walk, lcp._walk_top, lcp._walk_rtos,
            lcp._tail_cursor, lcp._pace, lcp._term_event, lcp.lp_pkts_sent)


def _loop_entries(sim):
    return [fn.__name__ for _time, fn, _args in sim.live_entries()
            if fn.__name__ in ("_open_case1", "_send_one", "_termination_check")
            or isinstance(getattr(fn, "__self__", None), EventChain)]


def _first_instant(n_packets, *, evented, scheme=None):
    """Start an ``n_packets`` flow and run its start instant; ``evented``
    opens case 1 the way every loop did before booking: a zero-delay
    ``_open_case1`` whose paced first ``_send_one`` closes an empty loop."""
    sender, topo, ctx = make_sender(size=n_packets * PAYLOAD, scheme=scheme)
    assert sender.n_packets == n_packets
    lcp = sender.lcp
    if evented:
        lcp.on_flow_start = lambda: lcp.sim.schedule(0.0, lcp._open_case1)
    sender.start()
    topo.sim.run(until=0.0)
    return sender, topo


@pytest.mark.parametrize("n_packets", range(1, INIT_CWND + 1))
def test_booked_first_loop_is_what_open_then_close_leaves(n_packets):
    booked, topo = _first_instant(n_packets, evented=False)
    assert not _loop_entries(topo.sim)          # nothing was scheduled
    evented, _topo = _first_instant(n_packets, evented=True)
    assert evented.lcp.loops_opened == 1 and not evented.lcp.active
    assert _loop_state(booked.lcp) == _loop_state(evented.lcp)
    assert booked.lcp._pace is None and booked.lcp._term_event is None
    assert booked.lcp.initial_window >= 1


def _pending_opens(sender, topo):
    return [time for time, fn, _args in topo.sim.live_entries()
            if fn == sender.lcp._open_case1]


@pytest.mark.parametrize("size, scheme, at_rtt", [
    (INIT_CWND * PAYLOAD + 1, None, False),         # beyond the first window
    (200_000, None, True),                          # identified large
    (200_000, Ppt(identification=False), False),    # large, unidentified
], ids=["first-window-plus-one", "identified-large", "noident-large"])
def test_a_loop_with_something_to_send_keeps_the_evented_open(size, scheme,
                                                              at_rtt):
    sender, topo, ctx = make_sender(size=size, scheme=scheme)
    sender.start()
    assert _pending_opens(sender, topo) == [
        sender.base_rtt if at_rtt else 0.0]
    assert sender.lcp.loops_opened == 0
    topo.sim.run(until=sender.base_rtt * 1.001)
    assert sender.lcp.loops_opened == 1 and sender.lcp.lp_pkts_sent > 0


def test_ablations_keep_their_first_instant():
    """``ewd=False`` bursts inside ``open_loop`` (no paced first packet
    to book) and keeps its zero-delay open; ``lcp_enabled=False`` has
    no loop to open."""
    sender, topo = _first_instant(1, evented=False, scheme=Ppt(ewd=False))
    assert sender.lcp.loops_opened == 1 and not sender.lcp.active
    assert _loop_entries(topo.sim) == ["_termination_check"]
    sender, topo = _first_instant(1, evented=False,
                                  scheme=Ppt(lcp_enabled=False))
    assert sender.lcp.loops_opened == 0 and not _loop_entries(topo.sim)


# Streamed Memcached W1 (1-2 packet messages) with the benchmark's
# ``memcached-churn`` thresholds: nearly every flow is covered by its
# first HCP window.  Both bounds are counts, so box speed cannot flake
# them.  Before booking, each covered flow left a zero-delay
# ``_open_case1`` in the heap and this run cost 39.07 events per flow.
SHORT_FLOWS = 2_000
BOOKED_EVENTS_PER_FLOW = 37.22      # 74,437 events


class _CoveredFlowPpt(Ppt):
    """PPT that counts flow starts leaving a loop entry in the heap
    although the first window covered the flow."""

    covered = resident = 0

    def start_flow(self, flow, ctx):
        super().start_flow(flow, ctx)
        sender = ctx.network.hosts[flow.src].endpoints[flow.flow_id]
        if sender.send_ptr >= sender.buffer_end() - 1:
            self.covered += 1
            self.resident += any(getattr(fn, "__self__", None) is sender.lcp
                                 for _time, fn, _args in ctx.sim.live_entries())


def test_short_flows_book_their_empty_first_loop():
    scheme = _CoveredFlowPpt()
    result = run(scheme, all_to_all_scenario(
        "short-flow-events", MEMCACHED_W1, load=0.5, n_flows=SHORT_FLOWS,
        size_cap=None, stream=True, seed=3,
        config=sim_config(demotion_thresholds=(2_000, 10_000, 30_000),
                          identification_threshold=30_000)))
    assert result.completed == SHORT_FLOWS
    assert scheme.covered > SHORT_FLOWS * 0.9
    assert scheme.resident == 0
    assert result.wall_events / SHORT_FLOWS <= BOOKED_EVENTS_PER_FLOW
