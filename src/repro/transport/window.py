"""Reliable window-based transport machinery (the TCP-shaped core).

Every TCP-style scheme in the paper — DCTCP, PIAS, RC3's primary loop,
PPT's HCP, Swift, HPCC — is a window transport: a congestion window in
MSS-sized packets, per-packet ACKs carrying cumulative + selective
information, duplicate-ACK fast retransmit, and a minimum-RTO timer.
:class:`WindowSender` / :class:`WindowReceiver` implement that machinery
once; congestion control is three overridable hooks:

* ``cc_on_ack(ce, rtt)``   — called for every new ACK,
* ``cc_on_fast_rtx()``     — called when dup-ACKs trigger a retransmit,
* ``cc_on_rto()``          — called when the retransmission timer fires.

The default hooks implement NewReno-style slow start / congestion
avoidance, which concrete schemes refine.

A sender may carry a *second*, low-priority loop that fills the flow
from the tail of its send buffer: :class:`TailLoop` is that mechanism,
written once; the schemes keep their policy.

Sequence numbers are *packet indices* (0-based); ``ack_seq`` on an ACK is
the next expected index (all indices below it are delivered), and the
ACK's own ``seq`` selectively acknowledges that one packet — a compact
SACK that is exact at packet granularity.

Each end keeps what it knows delivered as ``cum`` plus ``sacked``, the
delivered seqs at or above ``cum`` — O(reorder window), not O(flow);
``delivered`` is a read-only view over the pair
(:class:`~repro.transport.base.DeliveredSeqs`).
"""

from __future__ import annotations

import math
from functools import partial
from typing import Dict, Optional, Set

from ..sim.engine import Event, EventChain
from ..sim.packet import ACK, ACK_BYTES, DATA, Packet
from .base import (NO_SEQS, Flow, TransportConfig, TransportContext,
                   delivered_view)

#: Initial congestion window in packets: the Linux default (TCP-10 [12]).
INIT_CWND = 10
#: RTO multiplier per consecutive timeout without forward progress
#: (capped at ``max_rto``): keeps senders alive through link blackouts
#: without a pathological retransmit storm.
RTO_BACKOFF = 2.0


class WindowReceiver:
    """Counts unique payload packets; one ACK per data packet."""

    __slots__ = ("flow", "ctx", "n_packets", "sacked", "cum",
                 "_done", "data_pkts_received", "dup_pkts_received",
                 "lp_pkts_received", "_send_control")

    def __init__(self, flow: Flow, ctx: TransportContext) -> None:
        self.flow = flow
        self.ctx = ctx
        self.n_packets = flow.n_packets(ctx.config.mss)
        self.cum = 0               # next expected in-order packet index
        self.sacked: Set[int] = set()   # delivered seqs above ``cum``
        self._done = False
        self.data_pkts_received = 0
        self.dup_pkts_received = 0
        self.lp_pkts_received = 0  # low-priority-loop arrivals (RC3 etc.)
        # the reverse pair (dst -> src) never changes: its control
        # sender is resolved on the first ACK (see _control_sender())
        self._send_control = None

    delivered = delivered_view

    def on_packet(self, pkt: Packet) -> None:
        if pkt.kind != DATA:
            return
        self.data_pkts_received += 1
        if pkt.lcp:
            self.lp_pkts_received += 1
        seq = pkt.seq
        cum = self.cum
        if seq == cum:
            cum += 1
            sacked = self.sacked
            while cum in sacked:
                sacked.remove(cum)
                cum += 1
            self.cum = cum
        elif seq < cum or seq in self.sacked:
            self.dup_pkts_received += 1
        else:
            self.sacked.add(seq)
        self.acknowledge(pkt)
        if not self._done and cum >= self.n_packets:
            self._done = True
            # late duplicates only compare against ``cum``: the drained
            # set goes, not just its entries
            self.sacked = NO_SEQS
            self.ctx.on_complete(self.flow)

    def acknowledge(self, pkt: Packet) -> None:
        """Send an ACK for ``pkt`` — one per data packet.  PPT's 2:1
        LP-ACKs do not come through here: ``PptReceiver`` diverts LP data
        in ``on_packet`` before it reaches this method."""
        # make_ack, inlined — keep in sync with repro.sim.packet.make_ack
        # (this runs once per delivered data packet)
        ack = Packet(pkt.flow_id, pkt.dst, pkt.src, pkt.seq, ACK_BYTES,
                     ACK, pkt.priority)
        ack.ack_seq = self.cum
        ack.ecn_ce = pkt.ecn_ce
        ack.lcp = pkt.lcp
        ack.sent_at = pkt.sent_at
        # snapshot, never alias (HPCC forward-path INT; see make_ack)
        ack.int_records = (None if pkt.int_records is None
                           else list(pkt.int_records))
        ack.queue_delay = pkt.queue_delay
        ack.hops = pkt.hops
        (self._send_control or self._control_sender())(ack)

    def _control_sender(self):
        """Resolve and cache :meth:`Network.control_sender` for this
        flow's reverse pair — on the first control packet, not at
        construction (the tests' capture seam is installed in between)."""
        flow = self.flow
        send = self._send_control = self.ctx.network.control_sender(
            flow.dst, flow.src)
        return send

    @property
    def done(self) -> bool:
        return self._done


class WindowSender:
    """Window-based reliable sender with SACK, fast retransmit and RTO."""

    # One sender per flow, and streamed runs retire tens of thousands:
    # this many attributes defeat CPython's key-sharing dicts (1.5 KB of
    # private dict per sender), slots do not.  ``__dict__`` stays so
    # subclasses and test monkeypatches assign freely; it is only
    # materialised when used.
    __slots__ = (
        "flow", "ctx", "cfg", "sim", "host", "n_packets", "base_rtt",
        "cwnd", "ssthresh", "max_cwnd_seen",
        "outstanding", "_sent_hw", "_rtx_seqs", "sacked", "cum",
        "send_ptr", "dup_acks", "finished",
        "srtt", "pkts_transmitted", "pkts_retransmitted", "acks_received",
        "rtos_fired", "obs", "audit",
        "_rto_event", "_rto_deadline", "_last_fast_rtx", "_no_hole_floor",
        "rto_backoff_exp", "buffer_packets", "_payload", "_size_pad",
        "_min_rto", "_rto_cap",
        "_default_priority", "_default_ecn", "__dict__")

    # the second, low-priority loop of the schemes that have one
    lcp: Optional["TailLoop"] = None

    def __init__(self, flow: Flow, ctx: TransportContext) -> None:
        self.flow = flow
        self.ctx = ctx
        self.cfg: TransportConfig = ctx.config
        self.sim = ctx.sim
        self.host = ctx.network.hosts[flow.src]
        self.n_packets = flow.n_packets(self.cfg.mss)
        self.base_rtt = ctx.base_rtt(flow)

        # congestion state
        self.cwnd: float = float(INIT_CWND)
        self.ssthresh: float = float("inf")
        self.max_cwnd_seen: float = self.cwnd  # W_max for PPT (Eq. 2)

        # reliability state: outstanding maps seq -> last send time, so
        # SACK-style recovery can tell a *lost* packet (sent long ago,
        # still unacknowledged) from one merely in flight.  It iterates
        # in non-decreasing send time (transmit() re-inserts a re-sent
        # seq), so the stale entries are always a prefix
        self.outstanding: Dict[int, float] = {}
        # one past the highest seq this loop has put on the wire: a send
        # below it is a retransmission even when the caller didn't know
        # (post-RTO recovery goes through the plain try_send path).  A
        # mark is exact because the loop never sends a seq below it that
        # it did not send before: try_send skips delivered and
        # outstanding seqs, fast retransmit re-sends outstanding ones,
        # and the only unsent seqs below the mark were delivered by a
        # second loop, which nothing re-sends.
        self._sent_hw = 0
        # Karn's rule: seqs that were ever retransmitted.  An ACK for one
        # is ambiguous (it may acknowledge the original or any re-send
        # copy), so its RTT sample must not feed the srtt estimator.
        self._rtx_seqs: Set[int] = set()
        self.cum = 0
        self.sacked: Set[int] = set()   # delivered seqs at or above ``cum``
        self.send_ptr = 0
        self.dup_acks = 0
        self.finished = False

        # measurements
        self.srtt: float = self.base_rtt
        self.pkts_transmitted = 0
        self.pkts_retransmitted = 0
        self.acks_received = 0
        self.rtos_fired = 0

        # telemetry hook sites (repro.obs): None when the run is not
        # observed — the hot paths then pay one branch and nothing else
        self.obs = ctx.telemetry
        # invariant auditor (repro.validate): same contract as ``obs`` —
        # None on unvalidated runs, one branch per send burst otherwise
        self.audit = getattr(ctx, "auditor", None)

        # timers — a single lazy-deadline RTO: `_rto_deadline` is the
        # authoritative timeout and is merely *extended* on each ACK/send;
        # the scheduled event re-checks it on fire instead of being
        # cancelled and re-pushed per packet (which bloats the engine
        # heap with one dead entry per ACK).
        self._rto_event: Optional[Event] = None
        self._rto_deadline: float = math.inf
        self._last_fast_rtx: float = -1.0
        # Dup-ACK rescan guard: the oldest outstanding send time seen by
        # the last hole scan that found nothing.  While that is newer
        # than the staleness cutoff the scan is skipped — it could not
        # find a hole either.  None = no such bound.
        self._no_hole_floor: Optional[float] = None
        # consecutive timeouts without forward progress; exponent of the
        # RTO backoff, reset by any ACK that delivers new data
        self.rto_backoff_exp = 0

        # send-buffer model: only bytes the application has already copied
        # into the kernel send buffer are transmittable (§4.1).  The app
        # refills instantly as data drains, so the window of *available*
        # packet indices is [cum, cum + buffer_packets).
        payload = self.cfg.payload_per_packet()
        self.buffer_packets = max(1, self.cfg.send_buffer_bytes // payload)
        if flow.first_syscall_bytes is None:
            flow.first_syscall_bytes = min(flow.size, self.cfg.send_buffer_bytes)

        # hot-path cache: the per-packet payload split is a config
        # constant
        self._payload = payload
        self._size_pad = self.cfg.mss - payload
        # RTO parameters are construction-time constants of the config;
        # _arm_rto runs once per ACK and per send, so it reads these
        # caches instead of chasing cfg attributes
        self._min_rto = self.cfg.min_rto
        self._rto_cap = max(self.cfg.max_rto, self.cfg.min_rto)
        cls = type(self)
        # build_packet hook dispatch, resolved once: schemes that keep
        # the default P0 / ECN-on hooks skip two frames per data packet
        self._default_priority = cls.priority_for is WindowSender.priority_for
        self._default_ecn = cls.ecn_capable is WindowSender.ecn_capable

    delivered = delivered_view

    # -- lifecycle --------------------------------------------------------

    def start(self) -> None:
        self.try_send()

    def stop(self) -> None:
        self.finished = True
        if self._rto_event is not None:
            self._rto_event.cancel()
        self._release_seq_state()

    def _release_seq_state(self) -> None:
        """Drop the per-seq containers of a stopped flow.  A *completed*
        one has every seq delivered: ``cum`` moves to ``n_packets`` and
        the drained ``sacked`` set (sets never shrink) is swapped for the
        shared empty one, so ``delivered`` reads the same while a retired
        flow holds O(1) memory — the difference between flat and linearly
        growing memory on a long-horizon soak."""
        if self.cum + len(self.sacked) >= self.n_packets:
            self.cum = self.n_packets
            self.sacked = NO_SEQS
        self.outstanding.clear()
        # dead once ``finished`` is set: try_send/handle_ack/transmit all
        # short-circuit, so nothing consults the Karn marks
        self._rtx_seqs = NO_SEQS
        self._no_hole_floor = None
        self._rto_event = None

    # -- sending ----------------------------------------------------------

    def buffer_end(self) -> int:
        """One past the highest packet index currently in the send buffer."""
        return min(self.n_packets, self.cum + self.buffer_packets)

    def try_send(self) -> None:
        """Transmit while the window allows and data remains."""
        audit = self.audit
        outstanding = self.outstanding
        pre_burst = len(outstanding) if audit is not None else 0
        # cwnd/finished cannot change inside the loop (transmit() never
        # runs congestion hooks; delivery is asynchronous), so they are
        # hoisted out of the loop condition, and the next-new-seq probe
        # is inline — one loop instead of a frame per window slot
        cwnd = self.cwnd
        if not self.finished:
            cum = self.cum
            sacked = self.sacked
            while len(outstanding) < cwnd:
                end = self.buffer_end()
                ptr = self.send_ptr
                if ptr < cum:         # every seq below cum is delivered
                    ptr = cum
                while ptr < end and (ptr in sacked or ptr in outstanding):
                    ptr += 1
                self.send_ptr = ptr
                if ptr >= end:
                    break
                self.transmit(ptr)
        if audit is not None:
            audit.on_send_burst(self, pre_burst)

    def transmit(self, seq: int, retransmit: bool = False) -> None:
        # Any re-send of a seq this loop already transmitted is a
        # retransmission, whether or not the caller knew: after an RTO
        # the presumed-lost window is re-sent via the ordinary try_send
        # path, and that recovery work must show up in the counters.
        if seq < self._sent_hw:
            retransmit = True
        else:
            self._sent_hw = seq + 1
        pkt = self.build_packet(seq)
        now = self.sim.now
        pkt.retransmit = retransmit
        pkt.sent_at = now
        outstanding = self.outstanding
        self.pkts_transmitted += 1
        if retransmit:
            # only a seq sent before can still be in the ledger: move it
            # to the end, never re-time it in place
            outstanding.pop(seq, None)
            self._rtx_seqs.add(seq)
            self.pkts_retransmitted += 1
            if self.obs is not None:
                self.obs.on_retransmit(self.sim.now, self.flow.flow_id, seq)
        outstanding[seq] = now
        self.host.send(pkt)
        self._arm_rto()

    def build_packet(self, seq: int) -> Packet:
        payload = self._payload
        flow = self.flow
        mss = self.cfg.mss
        remaining = flow.size - seq * payload
        size = remaining + self._size_pad
        if remaining < 1:
            size = 1 + self._size_pad
        if size > mss:
            size = mss
        return Packet(
            flow.flow_id,
            flow.src,
            flow.dst,
            seq,
            size,
            DATA,
            0 if self._default_priority else self.priority_for(seq),
            True if self._default_ecn else self.ecn_capable(),
        )

    # -- scheme hooks -------------------------------------------------------

    def priority_for(self, seq: int) -> int:
        """Strict-priority class for packet ``seq``; default P0."""
        return 0

    def ecn_capable(self) -> bool:
        return True

    def cc_on_ack(self, ce: bool, rtt: float) -> None:
        """NewReno default: slow start then +1/cwnd per ACK."""
        if self.cwnd < self.ssthresh:
            self.cwnd += 1.0
        else:
            self.cwnd += 1.0 / max(self.cwnd, 1.0)
        self._cap_cwnd()

    def cc_on_fast_rtx(self) -> None:
        self.ssthresh = max(self.cwnd / 2.0, 2.0)
        self.cwnd = self.ssthresh
        self._cap_cwnd()

    def cc_on_rto(self) -> None:
        self.ssthresh = max(self.cwnd / 2.0, 2.0)
        self.cwnd = 1.0

    def _cap_cwnd(self) -> None:
        if self.cwnd > self.cfg.max_cwnd_packets:
            self.cwnd = float(self.cfg.max_cwnd_packets)
        if self.cwnd > self.max_cwnd_seen:
            self.max_cwnd_seen = self.cwnd

    # -- receiving ACKs -------------------------------------------------------

    def on_packet(self, pkt: Packet) -> None:
        if pkt.kind != ACK or self.finished:
            return
        self.handle_ack(pkt)

    def handle_ack(self, pkt: Packet) -> None:
        self.acks_received += 1
        seq = pkt.seq
        cum = self.cum
        sacked = self.sacked
        outstanding = self.outstanding
        newly = seq >= cum and seq not in sacked
        if newly:
            sacked.add(seq)
        outstanding.pop(seq, None)

        rtt = self.sim.now - pkt.sent_at
        if rtt > 0 and seq not in self._rtx_seqs:
            # Karn's rule: never take an srtt sample from the ACK of a
            # retransmitted seq — the echoed sent_at may belong to either
            # copy, and a stale-original echo measured against a re-send
            # would collapse srtt below the physical floor.
            self.srtt = 0.875 * self.srtt + 0.125 * rtt

        new_cum = pkt.ack_seq
        if new_cum > cum:
            for s in range(cum, new_cum):
                sacked.discard(s)
                outstanding.pop(s, None)
            self.cum = cum = new_cum
            self.dup_acks = 0
        elif seq > cum:
            self.dup_acks += 1
            if self.dup_acks >= 3:
                self._fast_retransmit()

        if newly:
            self.rto_backoff_exp = 0  # forward progress: reset backoff
            self.cc_on_ack(pkt.ecn_ce, rtt)

        if cum + len(sacked) >= self.n_packets:
            self.stop()
            self.ctx.retire(self)
            return
        self._arm_rto()
        self.try_send()

    MAX_RTX_PER_ACK = 8

    def _fast_retransmit(self) -> None:
        """SACK-style loss recovery: a packet still outstanding one
        smoothed RTT after it was sent, with later packets selectively
        acknowledged, is presumed lost and retransmitted.  The window is
        cut at most once per RTT (one congestion event per window)."""
        now = self.sim.now
        stale = now - max(self.srtt, self.base_rtt)
        floor = self._no_hole_floor
        if floor is not None and floor > stale:
            # Every send time at the last no-hole scan was >= floor, and
            # anything transmitted since then is newer still — so no
            # entry can satisfy ``t <= stale``: the walk below would
            # find nothing.
            return
        # send-time order: the stale entries are a prefix, and the
        # entry that ends the walk is the oldest fresh one
        holes = []
        floor = None
        for seq, sent in self.outstanding.items():
            if sent > stale:
                floor = sent
                break
            holes.append(seq)
        if not holes:
            self._no_hole_floor = floor
            return
        self._no_hole_floor = None
        if now - self._last_fast_rtx >= self.srtt:
            self._last_fast_rtx = now
            self.cc_on_fast_rtx()
        self.dup_acks = 0
        holes.sort()
        for seq in holes[: self.MAX_RTX_PER_ACK]:
            self.transmit(seq, retransmit=True)

    # -- retransmission timeout -----------------------------------------------

    # Backoff exponent never grows past this — 2**16 overflows any
    # realistic cap anyway and unbounded exponents are a float hazard.
    MAX_BACKOFF_EXP = 16

    def rto_interval(self) -> float:
        """Current timeout: base RTO scaled by exponential backoff, capped.

        The ``max_rto`` cap applies to the *base* too — an srtt inflated
        by queueing (or a stale sample) must not let the un-backed-off
        timeout exceed the cap that backoff itself respects.
        """
        cap = max(self.cfg.max_rto, self.cfg.min_rto)
        base = min(max(self.cfg.min_rto, 2.0 * self.srtt), cap)
        if self.rto_backoff_exp == 0:
            return base
        return min(base * RTO_BACKOFF ** self.rto_backoff_exp, cap)

    def _arm_rto(self) -> None:
        """Push the RTO deadline out to ``now + rto_interval()``.

        Lazy-deadline pattern: the deadline extension is just a float
        store.  A timer event is only (re)scheduled when none is pending
        or the deadline moved *earlier* (e.g. backoff reset); when the
        existing event fires before the deadline it re-arms itself
        instead of timing out (:meth:`_rto_fire`).
        """
        if self.finished:
            return
        # rto_interval(), inlined with branches for min/max — this runs
        # once per ACK and once per transmission
        cap = self._rto_cap
        interval = 2.0 * self.srtt
        if interval < self._min_rto:
            interval = self._min_rto
        if interval > cap:
            interval = cap
        exp = self.rto_backoff_exp
        if exp:
            interval = min(interval * RTO_BACKOFF ** exp, cap)
        deadline = self.sim.now + interval
        self._rto_deadline = deadline
        event = self._rto_event
        if event is not None and not event.cancelled and event.time <= deadline:
            return
        if event is not None:
            event.cancel()
        self._rto_event = self.sim.schedule(deadline - self.sim.now,
                                            self._rto_fire)

    def _rto_fire(self) -> None:
        """Timer callback: time out only if the real deadline passed."""
        self._rto_event = None
        if self.finished:
            return
        if self.sim.now < self._rto_deadline:
            # deadline was extended since this event was scheduled;
            # sleep again until the current deadline
            self._rto_event = self.sim.schedule(
                self._rto_deadline - self.sim.now, self._rto_fire)
            return
        self._on_rto()

    def _on_rto(self) -> None:
        if self.finished:
            return
        self.host.ops_sent += 1  # timer work counts as datapath ops
        self.rtos_fired += 1
        if self.obs is not None:
            self.obs.on_rto(self.sim.now, self.flow.flow_id)
        if self.rto_backoff_exp < self.MAX_BACKOFF_EXP:
            self.rto_backoff_exp += 1
        # Everything in flight is presumed lost.
        self.outstanding.clear()
        self.send_ptr = self.cum
        self.cc_on_rto()
        self.try_send()
        if not self.outstanding:
            # nothing sendable (e.g. all delivered via SACK); re-arm anyway
            self._arm_rto()


def _paced_entry(start: float, interval: float, fn, i: int) -> tuple:
    return start + i * interval, fn, ()


def paced_chain(sim, n: int, interval: float, fn) -> EventChain:
    """``fn()`` ``n`` times, ``interval`` apart starting now, as one
    :class:`~repro.sim.engine.EventChain`: the ``(time, seq)`` keys of
    ``n`` ``schedule(i * interval, fn)`` calls made now, one resident
    heap entry, nothing to cancel but its head.  The source is a lazy
    ``map`` over a module-level function because that pickles (a
    generator would not) and a checkpoint may be cut through a burst."""
    return sim.schedule_chain(
        map(partial(_paced_entry, sim.now, interval, fn), range(n)), n)


class TailLoop:
    """A low-priority loop filling a window sender's flow from the tail
    of its send buffer, attached as ``sender.lcp``.

    The mechanism shared by PPT's LCP (:mod:`repro.core.lcp`), RC3's
    filler (:mod:`.rc3`) and the hypothetical-DCTCP oracle
    (:mod:`repro.core.hypothetical`): the ledger of opportunistic
    packets in flight, their transmission and LP-ACK absorption, the
    purge of presumed-lost ones (the loop never retransmits — the
    primary loop covers the holes), the pick of the next tail packet,
    and a paced burst held as one heap entry.  *When* to send and *how
    much* is the owner's policy.  The ledger is in send-time order (the
    loop never re-sends); drop from it through :meth:`purge` or
    :meth:`close` only — :meth:`pick_tail` resumes its walk on that.
    """

    # one loop per PPT / RC3 flow: slots for the same reason as
    # WindowSender's (the policies' own attributes go to ``__dict__``)
    __slots__ = ("sender", "sim", "outstanding", "active", "loops_opened",
                 "lp_pkts_sent", "_pace", "_tail_cursor", "_walk",
                 "_walk_top", "_walk_rtos", "__dict__")

    def __init__(self, sender: WindowSender) -> None:
        self.sender = sender
        self.sim = sender.sim
        self.outstanding: Dict[int, float] = {}   # seq -> send time
        self.active = False
        self.loops_opened = 0
        self.lp_pkts_sent = 0
        self._pace: Optional[EventChain] = None
        # every seq above this is delivered (see pick_tail)
        self._tail_cursor = sender.n_packets - 1
        # pick_tail's walk: the seq it stopped at, the buffer top it
        # started from (-1: start over) and the primary's RTO count then
        self._walk = self._walk_top = -1
        self._walk_rtos = 0

    def open(self) -> None:
        self.active = True
        self.loops_opened += 1

    def close(self) -> None:
        """Stop sending and forget what is in flight (the primary loop
        covers whatever the closed loop had not delivered)."""
        self.cancel_pace()
        self.active = False
        if self.outstanding:
            self.outstanding.clear()
            self._walk_top = -1

    def pace(self, n: int, interval: float, fn) -> None:
        """Start a :func:`paced_chain` in place of whatever burst was
        still pending."""
        self.cancel_pace()
        self._pace = paced_chain(self.sim, n, interval, fn)

    def cancel_pace(self) -> None:
        if self._pace is not None:
            self._pace.cancel()
            self._pace = None

    def pick_tail(self) -> Optional[int]:
        """Highest buffered packet index not yet delivered or in flight
        on either loop; None when the loops have crossed (nothing left
        above the primary loop's pointer)."""
        sender = self.sender
        cum = sender.cum
        sacked = sender.sacked
        top = sender.buffer_end() - 1
        # A seq the walk has passed was delivered (for good) or in
        # flight on a loop, and is pickable again only once a ledger
        # forgets it undelivered: purge() / close() dropping something
        # (they reset _walk_top) or the primary's RTO.  Then, and when
        # the buffer top has risen, the walk starts over; otherwise it
        # resumes where it stopped — walking it all again per packet is
        # quadratic in the tail of a starved multi-MB flow.
        if top > self._walk_top or sender.rtos_fired != self._walk_rtos:
            self._walk_top = top
            self._walk_rtos = sender.rtos_fired
            # what is delivered stays delivered, so a restart skips the
            # delivered tail once and for all
            cursor = self._tail_cursor
            while cursor >= cum and cursor in sacked:
                cursor -= 1
            if cursor < cum:          # every seq below cum is delivered
                cursor = -1
            self._tail_cursor = cursor
            seq = min(top, cursor)
        else:
            seq = self._walk
        primary = sender.outstanding
        mine = self.outstanding
        send_ptr = sender.send_ptr
        while seq > send_ptr and (seq in sacked or seq < cum
                                  or seq in primary or seq in mine):
            seq -= 1
        # a picked seq is looked at again next time: the caller sends it
        self._walk = seq
        return seq if seq > send_ptr else None

    def transmit(self, seq: int, priority: int, ecn_capable: bool) -> None:
        sender = self.sender
        pkt = sender.build_packet(seq)
        pkt.lcp = True
        pkt.priority = priority
        pkt.ecn_capable = ecn_capable
        pkt.sent_at = now = self.sim.now
        self.outstanding[seq] = now
        self.lp_pkts_sent += 1
        sender.pkts_transmitted += 1
        sender.host.send(pkt)

    def purge(self, horizon: float) -> None:
        """Drop packets sent before ``horizon`` from the ledger: they are
        presumed lost."""
        outstanding = self.outstanding
        lost = []
        for seq, sent in outstanding.items():   # send-time order: a prefix
            if sent >= horizon:
                break
            lost.append(seq)
        if lost:
            for seq in lost:
                del outstanding[seq]
            self._walk_top = -1

    def absorb(self, pkt: Packet) -> bool:
        """Record what an LP-ACK delivered (its SACK tags, or its own
        seq, and everything below its cumulative pointer) — delivery
        only, no congestion-control input: a tagged seq the primary loop
        has also sent stays in the primary's window until the primary
        hears of it.  False when that completed the flow and stopped
        and retired the sender (this loop's ``sender`` is then None)."""
        sender = self.sender
        cum = sender.cum
        sacked = sender.sacked
        for seq in pkt.sack or (pkt.seq,):
            if seq >= cum:
                sacked.add(seq)
            self.outstanding.pop(seq, None)
        ack_seq = pkt.ack_seq
        if ack_seq > cum:
            primary = sender.outstanding
            for seq in range(cum, ack_seq):
                sacked.discard(seq)
                primary.pop(seq, None)
            sender.cum = cum = ack_seq
        if cum + len(sacked) >= sender.n_packets:
            sender.stop()
            sender.ctx.retire(sender)
            return False
        return True
