"""LCP — PPT's low-priority control loop (§3).

The controller lives beside a window sender (the HCP loop) and sends
*opportunistic* packets from the tail of the send buffer.  Two unusual
techniques, exactly as the paper describes:

**Intermittent loop initialization (§3.1).**  A loop opens

* *case 1* — when the flow starts, with initial window
  ``I = BDP - init_cwnd`` (delayed to the 2nd RTT for flows the
  buffer-aware approach identified as large, so first-RTT small flows are
  protected);
* *case 2* — after startup, whenever DCTCP's ``alpha`` takes the minimum
  value over the recent windows, with ``I = (1/2 - alpha_min) * W_max``
  (Eq. 2) — at most half the historical maximum window, and less when the
  minimum congestion level is higher.

**Exponential window decreasing (§3.2).**  The sender paces the initial
``I`` packets over one RTT.  The *receiver* returns one low-priority ACK
per two opportunistic data packets, and each non-ECE LP-ACK releases
exactly one new opportunistic packet — so the opportunistic rate halves
every RTT, gracefully vacating the bandwidth as HCP ramps back up.  An
ECE-marked LP-ACK is ignored (no new packet): either normal packets are
blocking opportunistic ones or vice versa, and in both cases LCP must
yield.  A loop terminates after 2 RTTs without LP-ACKs, after which the
controller goes back to watching for spare bandwidth.

Ablation switches (used by Figs. 15/16): ``ecn=False`` makes opportunistic
packets non-ECN-capable and removes the ECE suppression; ``ewd=False``
sends the loop's window at line rate every RTT instead of the paced,
halving schedule.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..sim.engine import Event
from ..sim.packet import Packet

_EPS = 1e-9


class LcpController:
    """Low-priority control loop attached to one PPT sender."""

    def __init__(
        self,
        sender,
        *,
        ecn: bool = True,
        ewd: bool = True,
        scheduling: bool = True,
        delay_large_first_loop: bool = True,
    ) -> None:
        self.sender = sender
        self.sim = sender.sim
        self.ecn = ecn
        self.ewd = ewd
        self.scheduling = scheduling
        self.delay_large_first_loop = delay_large_first_loop

        self.active = False
        self.outstanding: Dict[int, float] = {}   # seq -> send time
        self.last_lp_ack = -1.0
        self.initial_window = 0

        # statistics
        self.loops_opened = 0
        self.lp_pkts_sent = 0
        self.lp_acks_received = 0
        self.lp_acks_suppressed = 0

        self._pace_events: list = []
        self._term_event: Optional[Event] = None
        # every seq above this is delivered (see _pick_tail_seq)
        self._tail_cursor = sender.n_packets - 1

    # -- lifecycle ---------------------------------------------------------

    def on_flow_start(self) -> None:
        """Case 1: open the first loop at flow start (or the 2nd RTT for
        identified-large flows)."""
        delay = 0.0
        if self.sender.identified_large and self.delay_large_first_loop:
            delay = self.sender.base_rtt
        self.sim.schedule(delay, self._open_case1)

    def _open_case1(self) -> None:
        if self.sender.finished or self.active:
            return
        bdp = self.sender.ctx.bdp_packets(self.sender.flow)
        self.open_loop(bdp - self.sender.cfg.init_cwnd)

    def on_window_update(self) -> None:
        """Case 2: DCTCP just finished a window; (re)initialise a loop
        whenever alpha is at its running minimum (Eq. 2).

        The paper's invariant is per-RTT: "LCP ensures its window plus the
        current HCP's one does not exceed the maximum window for each flow
        in every RTT" — so an already-open loop whose EWD schedule has
        decayed is topped back up to the Eq. 2 window, counting what is
        still in flight."""
        sender = self.sender
        if sender.finished or not sender.startup_done:
            return
        alpha_min = sender.alpha_min
        if sender.alpha <= alpha_min + _EPS:
            gap = (0.5 - alpha_min) * sender.wmax - len(self.outstanding)
            self.open_loop(gap)

    def shutdown(self) -> None:
        self._cancel_timers()
        self.active = False
        self.outstanding.clear()

    def _cancel_timers(self) -> None:
        for event in self._pace_events:
            event.cancel()
        self._pace_events.clear()
        if self._term_event is not None:
            self._term_event.cancel()
            self._term_event = None

    # -- loop control --------------------------------------------------------

    def open_loop(self, initial_window: float) -> bool:
        """(Re)initialise the LCP loop with ``initial_window`` packets;
        False if the window is not positive or the flow has nothing left
        to fill.  An already-active loop is re-paced (its in-flight
        packets stay out; the caller accounts for them)."""
        if self.sender.finished:
            return False
        window = int(min(initial_window, self.sender.n_packets))
        if window < 1:
            return False
        for event in self._pace_events:
            event.cancel()
        self._pace_events.clear()
        self.active = True
        self.loops_opened += 1
        self.initial_window = window
        self.last_lp_ack = self.sim.now
        rtt = max(self.sender.base_rtt, 1e-9)
        if self.ewd:
            # pace I packets over one RTT: rate I/RTT (§3.2)
            interval = rtt / window
            for i in range(window):
                self._pace_events.append(
                    self.sim.schedule(i * interval, self._paced_send))
        else:
            # ablation (Fig. 16): line-rate burst, repeated every RTT
            for _ in range(window):
                if not self._send_one():
                    break
        if self._term_event is None:
            self._term_event = self.sim.schedule(rtt, self._termination_check)
        return True

    def close_loop(self) -> None:
        self._cancel_timers()
        self.active = False
        self.outstanding.clear()

    def _termination_check(self) -> None:
        self._term_event = None
        if not self.active or self.sender.finished:
            return
        rtt = max(self.sender.srtt, self.sender.base_rtt)
        # purge presumed-lost opportunistic packets so the HCP loop can
        # cover those holes (LCP never retransmits)
        horizon = self.sim.now - 2.0 * rtt
        for seq in [s for s, t in self.outstanding.items() if t < horizon]:
            del self.outstanding[seq]
        if self.sim.now - self.last_lp_ack > 2.0 * rtt:
            self.close_loop()
            return
        if not self.ewd:
            # the no-EWD variant keeps blasting its window every RTT
            for _ in range(self.initial_window - len(self.outstanding)):
                if not self._send_one():
                    break
        self._term_event = self.sim.schedule(rtt, self._termination_check)

    # -- sending ----------------------------------------------------------------

    def _paced_send(self) -> None:
        if self.active and not self.sender.finished:
            self._send_one()

    def _pick_tail_seq(self) -> Optional[int]:
        """Highest buffered packet index not yet delivered or in flight.

        Returns None when the loops have crossed (nothing left above the
        HCP loop's pointer), which also closes the loop.
        """
        sender = self.sender
        delivered = sender.delivered
        # ``delivered`` only grows, so the delivered tail is skipped once
        # and for all: rescanning it on every opportunistic packet is
        # quadratic in the tail of a starved multi-MB flow
        cursor = self._tail_cursor
        while cursor >= 0 and cursor in delivered:
            cursor -= 1
        self._tail_cursor = cursor
        seq = min(sender.buffer_end() - 1, cursor)
        hcp_outstanding = sender.outstanding
        while seq >= 0:
            if seq <= sender.send_ptr:
                return None  # crossed with the HCP loop
            if (seq not in delivered and seq not in hcp_outstanding
                    and seq not in self.outstanding):
                return seq
            seq -= 1
        return None

    def _send_one(self) -> bool:
        sender = self.sender
        seq = self._pick_tail_seq()
        if seq is None:
            self.close_loop()
            return False
        pkt = sender.build_packet(seq)
        pkt.lcp = True
        pkt.ecn_capable = self.ecn
        if self.scheduling:
            bytes_sent = seq * sender.cfg.payload_per_packet()
            pkt.priority = sender.tagger.lcp_priority(bytes_sent)
        else:
            pkt.priority = 4
        pkt.sent_at = self.sim.now
        self.outstanding[seq] = self.sim.now
        self.lp_pkts_sent += 1
        sender.pkts_transmitted += 1
        sender.host.send(pkt)
        return True

    # -- LP-ACK handling -----------------------------------------------------------

    def on_lp_ack(self, pkt: Packet) -> None:
        """Receiver sent one LP-ACK per two opportunistic packets."""
        sender = self.sender
        self.lp_acks_received += 1
        self.last_lp_ack = self.sim.now
        sacked = pkt.sack or (pkt.seq,)
        for seq in sacked:
            sender.delivered.add(seq)
            self.outstanding.pop(seq, None)
            sender.outstanding.pop(seq, None)
        if pkt.ack_seq > sender.cum:
            for s in range(sender.cum, pkt.ack_seq):
                sender.delivered.add(s)
                sender.outstanding.pop(s, None)
            sender.cum = pkt.ack_seq
        if len(sender.delivered) >= sender.n_packets:
            sender.stop()
            return
        if self.active:
            if self.ecn and pkt.ecn_ce:
                # Congestion on the low-priority path: yield (§3.2
                # remarks).  Besides not releasing a new packet, cancel
                # whatever remains of the paced initial window — "sense
                # congestion and decrease the sending rate early".
                self.lp_acks_suppressed += 1
                for event in self._pace_events:
                    event.cancel()
                self._pace_events.clear()
            elif self.ewd:
                self._send_one()
        sender.try_send()
