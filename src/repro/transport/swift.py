"""Swift-style delay-based congestion control [Kumar et al., SIGCOMM 2020].

The PPT paper's Fig. 14 variant is "conceptually equivalent to Swift": a
window adjusted only on *fabric* delay (our ideal control path returns the
forward-path queueing delay measured at every hop, so fabric delay is
exactly ``rtt - base_rtt``).  The algorithm is Swift's:

* target delay = base RTT scaled by a constant plus a per-hop term,
* below target: additive increase (+ai/cwnd per ACK, +ai when cwnd < 1),
* above target: multiplicative decrease proportional to the overshoot,
  capped at ``max_mdf``, at most once per RTT.
"""

from __future__ import annotations

from .base import Flow, Scheme, TransportContext
from .window import WindowReceiver, WindowSender


class SwiftSender(WindowSender):
    """Delay-based window sender."""

    AI = 1.0             # additive increment, packets per RTT
    BETA = 0.8           # multiplicative-decrease gain
    MAX_MDF = 0.5        # max multiplicative decrease factor
    BASE_SCALE = 1.25    # target = base_rtt * scale + per-hop term
    HOP_SCALE = 0.5e-6   # seconds of budget per switch hop
    HOPS = 2             # switch hops the target budgets for, on any path

    def __init__(self, flow: Flow, ctx: TransportContext) -> None:
        super().__init__(flow, ctx)
        self._last_decrease = -1.0
        self.target_delay = self._target()

    def _target(self) -> float:
        return self.base_rtt * self.BASE_SCALE + self.HOPS * self.HOP_SCALE

    def ecn_capable(self) -> bool:
        return False  # pure delay signal

    def cc_on_ack(self, ce: bool, rtt: float) -> None:
        if rtt <= 0:
            return
        self.target_delay = self._target()
        if rtt < self.target_delay:
            if self.cwnd >= 1.0:
                self.cwnd += self.AI / self.cwnd
            else:
                self.cwnd += self.AI
        else:
            now = self.sim.now
            if now - self._last_decrease >= self.srtt:
                overshoot = (rtt - self.target_delay) / rtt
                factor = max(1.0 - self.BETA * overshoot, 1.0 - self.MAX_MDF)
                self.cwnd = max(0.5, self.cwnd * factor)
                self._last_decrease = now
        self._cap_cwnd()

    def cc_on_fast_rtx(self) -> None:
        self.cwnd = max(0.5, self.cwnd * (1.0 - self.MAX_MDF))

    def cc_on_rto(self) -> None:
        self.cwnd = 1.0

    @property
    def below_target(self) -> bool:
        """True when the last smoothed RTT is under the target delay —
        the PPT-over-Swift LCP trigger (Fig. 14)."""
        return self.srtt < self.target_delay


class Swift(Scheme):
    name = "swift"

    sender_cls = SwiftSender
    receiver_cls = WindowReceiver
