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

This module is the §3 *policy*; the loop mechanism under it is
:class:`repro.transport.window.TailLoop`, shared with RC3's filler and
the hypothetical-DCTCP oracle.

Ablation switches (used by Figs. 15/16): ``ecn=False`` makes opportunistic
packets non-ECN-capable and removes the ECE suppression; ``ewd=False``
sends the loop's window at line rate every RTT instead of the paced,
halving schedule.
"""

from __future__ import annotations

from typing import Optional

from ..sim.engine import Event
from ..sim.packet import Packet
from ..transport.window import INIT_CWND, TailLoop

_EPS = 1e-9


class LcpController(TailLoop):
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
        super().__init__(sender)
        self.ecn = ecn
        self.ewd = ewd
        self.scheduling = scheduling
        self.delay_large_first_loop = delay_large_first_loop

        self.last_lp_ack = -1.0
        self.initial_window = 0

        # statistics
        self.lp_acks_received = 0
        self.lp_acks_suppressed = 0

        self._term_event: Optional[Event] = None

    # -- lifecycle ---------------------------------------------------------

    def on_flow_start(self) -> None:
        """Case 1: open the first loop at flow start (or the 2nd RTT for
        identified-large flows).

        An undelayed EWD loop with nothing to pick once the first HCP
        window is out is *booked*: nothing of a flow can happen at its
        own start instant (its first packet has yet to serialise), so the
        paced first ``_send_one`` would find the same empty tail now and
        close the loop.  The state open-then-close leaves is recorded and
        nothing is scheduled — the case of every 1-2 packet message."""
        sender = self.sender
        delayed = sender.identified_large and self.delay_large_first_loop
        window = self._first_window() if self.ewd and not delayed else 0
        if window >= 1 and self.pick_tail() is None:
            self.loops_opened += 1
            self.initial_window = window
            self.last_lp_ack = self.sim.now
        else:
            self.sim.schedule(sender.base_rtt if delayed else 0.0,
                              self._open_case1)

    def _first_window(self) -> int:
        """Case 1's ``I = BDP - init_cwnd``, clamped as in ``open_loop``."""
        sender = self.sender
        return int(min(sender.ctx.bdp_packets(sender.flow)
                       - INIT_CWND, sender.n_packets))

    def _open_case1(self) -> None:
        if self.sender.finished or self.active:
            return
        self.open_loop(self._first_window())

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
        self.open()
        self.initial_window = window
        self.last_lp_ack = self.sim.now
        rtt = max(self.sender.base_rtt, 1e-9)
        if self.ewd:
            # pace I packets over one RTT: rate I/RTT (§3.2)
            self.pace(window, rtt / window, self._send_one)
        else:
            # ablation (Fig. 16): line-rate burst, repeated every RTT
            self._burst(window)
        if self._term_event is None:
            self._term_event = self.sim.schedule(rtt, self._termination_check)
        return True

    def close(self) -> None:
        super().close()
        if self._term_event is not None:
            self._term_event.cancel()
            self._term_event = None

    def _termination_check(self) -> None:
        self._term_event = None
        if not self.active or self.sender.finished:
            return
        rtt = max(self.sender.srtt, self.sender.base_rtt)
        # purge presumed-lost opportunistic packets so the HCP loop can
        # cover those holes (LCP never retransmits)
        self.purge(self.sim.now - 2.0 * rtt)
        if self.sim.now - self.last_lp_ack > 2.0 * rtt:
            self.close()
            return
        if not self.ewd:
            # the no-EWD variant keeps blasting its window every RTT
            self._burst(self.initial_window - len(self.outstanding))
        self._term_event = self.sim.schedule(rtt, self._termination_check)

    # -- sending ----------------------------------------------------------------

    def _burst(self, n: int) -> None:
        for _ in range(n):
            if not self._send_one():
                break

    def _send_one(self) -> bool:
        """One opportunistic packet from the tail; closes the loop (and
        returns False) when it has crossed the HCP loop."""
        seq = self.pick_tail()
        if seq is None:
            self.close()
            return False
        priority = 4
        if self.scheduling:
            sender = self.sender
            priority = sender.tagger.lcp_priority(seq * sender._payload)
        self.transmit(seq, priority, self.ecn)
        return True

    # -- LP-ACK handling -----------------------------------------------------------

    def on_lp_ack(self, pkt: Packet) -> None:
        """Receiver sent one LP-ACK per two opportunistic packets."""
        self.lp_acks_received += 1
        self.last_lp_ack = self.sim.now
        # §5.2: what the LP path delivered leaves the HCP window at once
        hcp_outstanding = self.sender.outstanding
        for seq in pkt.sack or (pkt.seq,):
            hcp_outstanding.pop(seq, None)
        if not self.absorb(pkt):
            return
        if self.active:
            if self.ecn and pkt.ecn_ce:
                # Congestion on the low-priority path: yield (§3.2
                # remarks).  Besides not releasing a new packet, cancel
                # whatever remains of the paced initial window — "sense
                # congestion and decrease the sending rate early".
                self.lp_acks_suppressed += 1
                self.cancel_pace()
            elif self.ewd:
                self._send_one()
        self.sender.try_send()
