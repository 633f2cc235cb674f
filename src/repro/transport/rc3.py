"""RC3 [Mittal et al., NSDI 2014] — recursively cautious congestion control.

RC3 runs a primary TCP loop (here DCTCP, as the PPT paper configures for
a fair DCN comparison) plus a low-priority loop that transmits from the
*tail* of the flow.  The LP loop is deliberately aggressive — the PPT
paper's critique: it "fills up the entire BDP for every RTT" and "makes
no effort to protect the HCP loop":

* every RTT the LP loop bursts enough low-priority packets to fill the
  BDP left over by the primary loop, at line rate, until the two loops'
  pointers cross;
* LP packets are assigned RC3's recursive priority levels — the last 40
  packets of the flow at the highest LP priority, the next 400 one level
  lower, the rest at the lowest — mirroring RC3's exponential levels;
* LP packets are *not* ECN-capable and the LP loop never slows down on
  congestion; lost LP packets are never retransmitted by the LP loop
  (the primary loop eventually covers the hole).
"""

from __future__ import annotations

from ..sim.packet import ACK, Packet
from .base import Flow, TransportContext
from .dctcp import Dctcp, DctcpSender
from .window import TailLoop, WindowReceiver

# RC3's recursive priority-level sizes, in packets, counted from the tail.
LEVEL_SIZES = (40, 400)          # beyond these, everything at the last level
LEVEL_PRIORITIES = (5, 6, 7)     # P5, P6, then P7 for the remainder


def rc3_priority(packets_from_tail: int) -> int:
    """Priority for the LP packet ``packets_from_tail`` before flow end."""
    boundary = 0
    for size, priority in zip(LEVEL_SIZES, LEVEL_PRIORITIES):
        boundary += size
        if packets_from_tail < boundary:
            return priority
    return LEVEL_PRIORITIES[-1]


class Rc3Sender(DctcpSender):
    """DCTCP primary loop + RC3's aggressive low-priority filler loop
    (the shared :class:`~repro.transport.window.TailLoop` mechanism under
    RC3's policy: a BDP-filling burst every RTT, each packet attempted
    once, recursive priorities)."""

    LP_STALE_RTTS = 2.0  # purge un-ACKed LP packets after this many RTTs

    def __init__(self, flow: Flow, ctx: TransportContext) -> None:
        super().__init__(flow, ctx)
        self.lcp = TailLoop(self)
        self.bdp = ctx.bdp_packets(flow)
        self._lp_timer = None
        # RC3's LP loop attempts every packet exactly once: a strictly
        # descending pointer.  Lost LP packets are *never* retried by the
        # LP loop — the primary loop covers the holes at DCTCP pace.
        self._lp_ptr = self.n_packets - 1

    def start(self) -> None:
        super().start()
        self.lcp.open()
        self._lp_round()

    def stop(self) -> None:
        super().stop()
        self.lcp.close()
        if self._lp_timer is not None:
            self._lp_timer.cancel()
            self._lp_timer = None

    # -- LP loop ------------------------------------------------------------

    def _lp_round(self) -> None:
        """Once per RTT: burst LP packets to fill the BDP (RC3's behaviour)."""
        loop = self.lcp
        if not loop.active:
            return
        # losses are never retransmitted
        loop.purge(self.sim.now - self.LP_STALE_RTTS * self.srtt)
        lp_in_flight = loop.outstanding
        budget = self.bdp - len(self.outstanding) - len(lp_in_flight)
        sent = 0
        end = self.buffer_end() - 1
        if self._lp_ptr > end:
            self._lp_ptr = end
        cum, sacked = self.cum, self.sacked
        while sent < budget and self._lp_ptr >= 0:
            seq = self._lp_ptr
            if seq <= self.send_ptr:
                # LP pointer met the primary loop: RC3 closes the LP loop.
                loop.close()
                return
            self._lp_ptr -= 1
            if (seq >= cum and seq not in sacked
                    and seq not in self.outstanding
                    and seq not in lp_in_flight):
                self._lp_transmit(seq)
                sent += 1
        self._lp_timer = self.sim.schedule(max(self.srtt, self.base_rtt),
                                           self._lp_round)

    def _lp_transmit(self, seq: int) -> None:
        # LP packets are not ECN-capable: the loop never slows down
        self.lcp.transmit(seq, rc3_priority(self.n_packets - 1 - seq), False)

    # -- ACK handling ----------------------------------------------------------

    def on_packet(self, pkt: Packet) -> None:
        if pkt.kind != ACK or self.finished:
            return
        if not pkt.lcp:
            self.handle_ack(pkt)
        elif self.lcp.absorb(pkt):
            self.try_send()


class Rc3(Dctcp):
    name = "rc3"
    sender_cls = Rc3Sender
    receiver_cls = WindowReceiver
