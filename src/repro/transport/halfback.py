"""Halfback [Li, Dong, Godfrey — CoNEXT 2015] — "running short flows
quickly and safely".

Table 1's second startup-focused reactive baseline.  Halfback has two
mechanisms:

* **Pacing-out**: flows up to ~141KB skip slow start entirely — the
  whole flow is paced out within the first RTT (at line rate in the
  original; paced over one RTT here, which is the paper's description).
* **Backwards retransmission (proactive redundancy)**: after pacing the
  flow out, the sender immediately retransmits packets from the *tail
  backwards* while waiting for ACKs, so a lost packet near the end is
  repaired without waiting for a timeout.  Redundant packets are
  deprioritised so they only consume spare capacity.

Flows larger than the pace-out threshold fall back to standard TCP
behaviour (slow start from IW).  Like TCP-10, Halfback ignores the
queue-buildup phase — which is the PPT paper's critique ("utilize spare
bandwidth in the startup phase ... while ignoring those in the queue
buildup phase").
"""

from __future__ import annotations

from .base import Flow, Scheme, TransportContext
from .window import WindowReceiver, WindowSender, paced_chain

PACE_OUT_LIMIT = 141_000       # bytes; flows up to this are paced out
REDUNDANCY_PRIORITY = 7        # backwards retransmissions ride the bottom


class HalfbackSender(WindowSender):
    """Window sender with first-RTT pace-out and backwards redundancy."""

    def __init__(self, flow: Flow, ctx: TransportContext) -> None:
        super().__init__(flow, ctx)
        self.paced_out = flow.size <= PACE_OUT_LIMIT
        # the pace-out chain (and the seq it sends next) and the one
        # pending backwards round
        self._pace = self._back_event = None
        self._pace_ptr = 0
        self._back_ptr = self.n_packets - 1

    def ecn_capable(self) -> bool:
        return False

    def start(self) -> None:
        if not self.paced_out:
            super().start()
            return
        # pace the whole flow over one RTT, then start backwards
        # retransmission of unacked packets
        interval = max(self.base_rtt, 1e-9) / self.n_packets
        self.cwnd = float(self.n_packets)
        self._pace = paced_chain(self.sim, self.n_packets, interval,
                                 self._paced_send)
        self._back_event = self.sim.schedule(self.base_rtt,
                                             self._backwards_round)

    def stop(self) -> None:
        super().stop()
        if self._pace is not None:
            self._pace.cancel()
        if self._back_event is not None:
            # a dead handle still holds its callback, this sender
            self._back_event.cancel()
        self._pace = self._back_event = None

    def _paced_send(self) -> None:
        seq = self._pace_ptr
        self._pace_ptr = seq + 1
        if not self.finished and seq >= self.cum and seq not in self.sacked:
            self.transmit(seq)

    def _backwards_round(self) -> None:
        """Redundantly resend un-ACKed packets from the tail backwards,
        one per ACK-interval, until everything is delivered."""
        if self.finished:
            return
        ptr = self._back_ptr
        cum = self.cum
        while ptr >= cum and ptr in self.sacked:
            ptr -= 1
        if ptr < cum:           # every seq below cum is delivered
            # completed one backwards sweep; start over after one RTT
            # (Halfback keeps repairing until everything is ACKed)
            self._back_ptr = self.n_packets - 1
            self._back_event = self.sim.schedule(
                max(self.srtt, self.base_rtt), self._backwards_round)
            return
        self._back_ptr = ptr
        pkt = self.build_packet(ptr)
        pkt.priority = REDUNDANCY_PRIORITY
        pkt.lcp = True              # redundancy is scavenger-class
        pkt.sent_at = self.sim.now
        self._back_ptr -= 1
        self.pkts_transmitted += 1
        self.pkts_retransmitted += 1
        self.host.send(pkt)
        interval = max(self.srtt, self.base_rtt) / max(self.n_packets, 1)
        self._back_event = self.sim.schedule(interval, self._backwards_round)

    def on_packet(self, pkt) -> None:
        if pkt.kind == 1 and pkt.lcp and not self.finished:  # ACK for redundancy
            seq = pkt.seq
            if seq >= self.cum:
                self.sacked.add(seq)
            self.outstanding.pop(seq, None)
            if self.cum + len(self.sacked) >= self.n_packets:
                self.stop()
                self.ctx.retire(self)
            return
        super().on_packet(pkt)


class Halfback(Scheme):
    name = "halfback"

    sender_cls = HalfbackSender
    receiver_cls = WindowReceiver
