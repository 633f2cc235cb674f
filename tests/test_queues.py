"""Unit and property tests for the strict-priority mux."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.packet import DATA, HEADER, HEADER_BYTES, Packet
from repro.sim.queues import PriorityMux
from repro.validate.auditor import audit_mux


def make_pkt(seq=0, size=1500, priority=0, *, lcp=False, unscheduled=False,
             ecn_capable=True):
    pkt = Packet(flow_id=1, src=0, dst=1, seq=seq, size=size,
                 kind=DATA, priority=priority, ecn_capable=ecn_capable)
    pkt.lcp = lcp
    pkt.unscheduled = unscheduled
    return pkt


def trimming_mux(buffer_bytes, **kwargs):
    """A mux with NDP trimming on, set the way NDP's
    ``configure_network`` sets it."""
    mux = PriorityMux(buffer_bytes, **kwargs)
    mux.trim = True
    return mux


def test_fifo_within_priority():
    mux = PriorityMux(100_000)
    for seq in range(5):
        assert mux.enqueue(make_pkt(seq))
    assert [mux.dequeue().seq for _ in range(5)] == list(range(5))


def test_strict_priority_order():
    mux = PriorityMux(100_000)
    mux.enqueue(make_pkt(seq=1, priority=7))
    mux.enqueue(make_pkt(seq=2, priority=3))
    mux.enqueue(make_pkt(seq=3, priority=0))
    order = [mux.dequeue().priority for _ in range(3)]
    assert order == [0, 3, 7]


def test_dequeue_empty_returns_none():
    mux = PriorityMux(100_000)
    assert mux.dequeue() is None
    assert mux.empty


def test_dequeue_skips_paused_priorities():
    """``paused_mask`` is the port's PFC state: a paused priority keeps
    its packets and its ``nonempty_mask`` bit, the highest unpaused one
    is served, and the ledgers stay exact."""
    mux = PriorityMux(100_000)
    for seq, priority in enumerate((0, 0, 2, 5)):
        assert mux.enqueue(make_pkt(seq, priority=priority))
    paused = 1 << 0
    pkt = mux.dequeue(paused)
    assert (pkt.seq, pkt.priority) == (2, 2)
    assert mux.nonempty_mask == (1 << 0) | (1 << 5)
    assert mux.dequeue(paused | 1 << 5) is None
    assert mux.nonempty_mask == (1 << 0) | (1 << 5)
    assert not audit_mux(mux)
    assert mux.dequeue(paused).seq == 3
    assert mux.nonempty_mask == 1 << 0
    assert len(mux) == 2 and mux.occupancy == 3000
    assert not audit_mux(mux)
    # no argument: nothing paused, strict priority as before
    assert [mux.dequeue().seq for _ in range(2)] == [0, 1]
    assert mux.dequeue() is None
    assert mux.nonempty_mask == 0 and mux.empty
    assert mux.stats.dequeued == mux.stats.enqueued == 4
    assert not audit_mux(mux)


def test_shared_buffer_tail_drop():
    mux = PriorityMux(3000)
    assert mux.enqueue(make_pkt(size=1500))
    assert mux.enqueue(make_pkt(size=1500))
    assert not mux.enqueue(make_pkt(size=1500))
    assert mux.stats.dropped == 1


def test_occupancy_tracks_bytes():
    mux = PriorityMux(100_000)
    mux.enqueue(make_pkt(size=1500))
    mux.enqueue(make_pkt(size=500, priority=4))
    assert mux.occupancy == 2000
    assert mux.queue_occupancy[0] == 1500
    assert mux.queue_occupancy[4] == 500
    mux.dequeue()
    assert mux.occupancy == 500


def test_occupancy_split_high_low():
    mux = PriorityMux(100_000)
    mux.enqueue(make_pkt(size=1000, priority=2))
    mux.enqueue(make_pkt(size=700, priority=6))
    split = mux.occupancy_split()
    assert split == {"high": 1000, "low": 700}


def test_paper_mode_hp_marks_on_hp_half_only():
    mux = PriorityMux(100_000, [3000] * 4 + [3000] * 4)
    # Fill P5 (low half) with 6KB: must NOT mark high-priority arrivals.
    mux.enqueue(make_pkt(size=3000, priority=5))
    mux.enqueue(make_pkt(size=3000, priority=5))
    hp = make_pkt(size=1500, priority=1)
    mux.enqueue(hp)
    assert not hp.ecn_ce
    # But a low-priority arrival marks on the *total* occupancy.
    lp = make_pkt(size=1500, priority=6, lcp=True)
    mux.enqueue(lp)
    assert lp.ecn_ce


def test_paper_mode_hp_half_aggregates_across_hp_queues():
    mux = PriorityMux(100_000, [3000] * 8)
    mux.enqueue(make_pkt(size=2000, priority=0))
    mux.enqueue(make_pkt(size=2000, priority=3))
    hp = make_pkt(size=1000, priority=1)
    mux.enqueue(hp)
    assert hp.ecn_ce  # P0-P3 hold 4000 >= 3000


def test_non_ecn_capable_never_marked():
    mux = PriorityMux(100_000, [0] * 8)
    mux.enqueue(make_pkt(size=1500))
    pkt = make_pkt(size=1500, ecn_capable=False)
    mux.enqueue(pkt)
    assert not pkt.ecn_ce


def test_dynamic_threshold_caps_greedy_queue():
    # alpha=1: a queue may hold at most the remaining free space.
    mux = PriorityMux(10_000, dt_alpha=1.0)
    admitted = 0
    for seq in range(10):
        if mux.enqueue(make_pkt(seq, size=1000, priority=5)):
            admitted += 1
    # equilibrium: queue <= buffer/2 under alpha=1
    assert mux.queue_occupancy[5] <= 5000 + 1000
    assert admitted < 10
    # another priority still has room
    assert mux.enqueue(make_pkt(size=1000, priority=0))


def test_dt_alpha_per_priority_sequence():
    mux = PriorityMux(10_000, dt_alpha=[8.0] * 4 + [0.5] * 4)
    for seq in range(10):
        mux.enqueue(make_pkt(seq, size=1000, priority=6))
    low_occ = mux.queue_occupancy[6]
    for seq in range(10):
        mux.enqueue(make_pkt(seq, size=1000, priority=1))
    assert mux.queue_occupancy[1] > low_occ


def test_dt_alpha_bad_length_rejected():
    with pytest.raises(ValueError):
        PriorityMux(10_000, dt_alpha=[1.0, 2.0])


def test_bad_threshold_count_rejected():
    with pytest.raises(ValueError):
        PriorityMux(10_000, [1000] * 3)


def test_trim_threshold_cuts_payload():
    mux = trimming_mux(100_000)
    mux.trim_threshold_bytes = 3000
    mux.enqueue(make_pkt(size=1500, priority=1))
    mux.enqueue(make_pkt(size=1500, priority=1))
    victim = make_pkt(seq=9, size=1500, priority=1)
    assert mux.enqueue(victim)
    assert victim.kind == HEADER
    assert victim.size == HEADER_BYTES
    assert victim.priority == 0
    assert mux.stats.trimmed == 1


def test_trim_on_buffer_exhaustion():
    mux = trimming_mux(3100)
    mux.enqueue(make_pkt(size=1500))
    mux.enqueue(make_pkt(size=1500))
    victim = make_pkt(seq=9, size=1500)
    assert mux.enqueue(victim)  # trimmed header (64B) still fits
    assert victim.kind == HEADER


def test_trim_drops_header_when_buffer_truly_full():
    mux = trimming_mux(3000)
    mux.enqueue(make_pkt(size=1500))
    mux.enqueue(make_pkt(size=1500))
    assert not mux.enqueue(make_pkt(seq=9, size=1500))
    assert mux.stats.dropped == 1


def test_selective_drop_only_hits_unscheduled():
    mux = PriorityMux(100_000)
    mux.selective_drop_threshold = 2000  # as Aeolus's configure_network
    mux.enqueue(make_pkt(size=1500))
    mux.enqueue(make_pkt(size=1500))  # occupancy now 3000 > 2000
    unsched = make_pkt(unscheduled=True)
    sched = make_pkt()
    assert not mux.enqueue(unsched)
    assert mux.enqueue(sched)


def test_lp_buffer_cap():
    mux = PriorityMux(100_000, lp_buffer_cap=2000)
    assert mux.enqueue(make_pkt(size=1500, priority=5, lcp=True))
    assert not mux.enqueue(make_pkt(size=1500, priority=5, lcp=True))
    assert mux.enqueue(make_pkt(size=1500, priority=0))  # HP unaffected
    assert mux.lp_occupancy == 1500


def test_drop_hook_invoked():
    dropped = []
    mux = PriorityMux(1000)
    mux.drop_hook = dropped.append
    mux.enqueue(make_pkt(size=1500))
    assert len(dropped) == 1


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 7), st.integers(64, 1500)),
                min_size=1, max_size=60),
       st.integers(min_value=2000, max_value=20_000))
def test_conservation_and_occupancy_invariants(items, buffer_bytes):
    """Property: enqueued = dequeued + still-queued; occupancy equals the
    byte sum of queued packets; dequeue order respects strict priority."""
    mux = PriorityMux(buffer_bytes)
    admitted = 0
    for priority, size in items:
        if mux.enqueue(make_pkt(size=size, priority=priority)):
            admitted += 1
    assert mux.stats.enqueued == admitted
    assert mux.stats.dropped == len(items) - admitted
    assert mux.occupancy == sum(
        p.size for q in mux.queues for p in q)
    assert mux.occupancy <= buffer_bytes

    out = []
    while True:
        pkt = mux.dequeue()
        if pkt is None:
            break
        out.append(pkt.priority)
    assert len(out) == admitted
    assert out == sorted(out)  # strict priority drains highest class first
    assert mux.occupancy == 0
    assert all(v == 0 for v in mux.queue_occupancy)


def test_trimmed_then_dropped_counts_once_as_drop():
    """A packet trimmed as a last resort and *still* not fitting is one
    drop — not a trim and a drop — and its bytes_dropped reflect the
    size it arrived with, not the 64B header it shrank to."""
    mux = trimming_mux(3000)
    mux.enqueue(make_pkt(size=1500))
    mux.enqueue(make_pkt(size=1500))
    assert not mux.enqueue(make_pkt(seq=9, size=1500))
    assert mux.stats.dropped == 1
    assert mux.stats.trimmed == 0
    assert mux.stats.bytes_dropped == 1500
    assert mux.stats.enqueued + mux.stats.dropped == 3


def test_threshold_trim_survivor_counts_as_trim_not_drop():
    mux = trimming_mux(100_000)
    mux.trim_threshold_bytes = 1000
    assert mux.enqueue(make_pkt(size=900, priority=1))          # under threshold
    assert mux.enqueue(make_pkt(seq=1, size=1500, priority=1))  # trimmed
    assert mux.stats.trimmed == 1
    assert mux.stats.dropped == 0
    assert mux.stats.enqueued == 2


def test_mark_and_trim_hooks_invoked():
    marks, trims = [], []
    mux = trimming_mux(100_000, ecn_thresholds=[0] + [None] * 7)
    mux.add_mark_hook(marks.append)
    mux.add_trim_hook(trims.append)
    mux.trim_threshold_bytes = 1000
    mux.enqueue(make_pkt(size=900, priority=0))
    mux.enqueue(make_pkt(seq=1, size=1500, priority=0))
    assert len(marks) == mux.stats.marked > 0
    assert len(trims) == mux.stats.trimmed == 1


def test_hooks_chain_instead_of_overwrite():
    first, second = [], []
    mux = PriorityMux(1000)
    mux.add_drop_hook(first.append)
    mux.add_drop_hook(second.append)
    mux.enqueue(make_pkt(size=1500))
    assert len(first) == len(second) == 1


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 7), st.integers(64, 1500)),
                min_size=1, max_size=60),
       st.integers(min_value=2000, max_value=8_000))
def test_conservation_with_trimming(items, buffer_bytes):
    """Property: with NDP trimming on, every arrival is still exactly one
    of enqueued or dropped, and bytes_dropped sums arrival sizes."""
    mux = trimming_mux(buffer_bytes)
    mux.trim_threshold_bytes = buffer_bytes // 2
    arrival_bytes = []
    for priority, size in items:
        pkt = make_pkt(size=size, priority=priority)
        if not mux.enqueue(pkt):
            arrival_bytes.append(size)
    assert mux.stats.enqueued + mux.stats.dropped == len(items)
    assert mux.stats.bytes_dropped == sum(arrival_bytes)
    assert mux.stats.trimmed <= mux.stats.enqueued


# -- incremental ledgers (hp_occupancy / nonempty_mask / pkt_count) --------


def _ledgers_match_scan(mux):
    """Every incremental ledger equals the value a full scan computes."""
    per_queue = [sum(p.size for p in q) for q in mux.queues]
    assert mux.occupancy == sum(per_queue)
    assert list(mux.queue_occupancy) == per_queue
    assert mux.hp_occupancy == sum(per_queue[0:4])
    assert mux.lp_occupancy == sum(p.size for q in mux.queues
                                   for p in q if p.lcp)
    mask = 0
    for priority, queue in enumerate(mux.queues):
        if queue:
            mask |= 1 << priority
    assert mux.nonempty_mask == mask
    assert mux.pkt_count == sum(len(q) for q in mux.queues)
    # __len__ and occupancy_split are served by the same counters
    assert len(mux) == mux.pkt_count
    split = mux.occupancy_split()
    assert split["high"] == mux.hp_occupancy
    assert split["low"] == mux.occupancy - mux.hp_occupancy


def test_ledgers_track_mixed_enqueue_dequeue():
    mux = PriorityMux(buffer_bytes=100_000)
    for seq, (priority, lcp) in enumerate(
            [(0, False), (5, True), (3, False), (7, True), (1, False)]):
        assert mux.enqueue(make_pkt(seq=seq, priority=priority, lcp=lcp))
        _ledgers_match_scan(mux)
    while len(mux):
        mux.dequeue()
        _ledgers_match_scan(mux)
    assert mux.nonempty_mask == 0
    assert mux.hp_occupancy == 0


def test_ledgers_track_trim_and_flush():
    # 6100: four 1500 B packets fill the buffer, the fifth's last-resort
    # trim leaves a 64 B header that still fits
    mux = trimming_mux(6_100)
    for seq in range(4):
        mux.enqueue(make_pkt(seq=seq, priority=6))
        _ledgers_match_scan(mux)
    # next low-priority arrival trims (header re-queued at P0)
    mux.enqueue(make_pkt(seq=9, priority=6))
    _ledgers_match_scan(mux)
    assert mux.nonempty_mask & 1            # trimmed header sits at P0
    flushed = mux.flush()
    assert flushed > 0
    _ledgers_match_scan(mux)
    assert len(mux) == 0 and mux.occupancy == 0


def test_len_and_split_are_o1_counters():
    """__len__/occupancy_split must read the ledgers, not rescan — pin
    that by cooking the counter and observing the lie comes straight
    back (the auditor is what detects cooked ledgers, not these
    accessors)."""
    mux = PriorityMux(buffer_bytes=100_000)
    mux.enqueue(make_pkt(seq=0, priority=0))
    mux.enqueue(make_pkt(seq=1, priority=5))
    assert len(mux) == 2
    mux.pkt_count = 99
    assert len(mux) == 99
    mux.hp_occupancy = 123
    assert mux.occupancy_split()["high"] == 123
