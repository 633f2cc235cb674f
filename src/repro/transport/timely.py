"""TIMELY [Mittal et al., SIGCOMM 2015] — RTT-*gradient* based rate
control, one of the reactive transports the paper's introduction cites.

Unlike Swift (absolute delay vs a target), TIMELY reacts to the *rate of
change* of the RTT: a positive normalised gradient means queues are
building and the rate is cut multiplicatively; a negative gradient means
queues are draining and the window grows additively.  Low/high RTT
thresholds (Tlow/Thigh) bound the gradient regime, exactly as in the
paper's Algorithm 1.  We keep it window-based (window = rate x RTT) like
the rest of the framework; the paper's own analysis treats the two as
interchangeable at this granularity.
"""

from __future__ import annotations

from .base import Flow, Scheme, TransportContext
from .window import WindowReceiver, WindowSender


class TimelySender(WindowSender):
    ALPHA_EWMA = 0.3     # gradient smoothing
    BETA = 0.8           # multiplicative decrease factor
    DELTA = 1.0          # additive increase, packets
    T_LOW_SCALE = 1.1    # below this x base_rtt: always increase
    T_HIGH_SCALE = 4.0   # above this x base_rtt: always decrease
    HAI_N = 5            # completion events before hyper-active increase

    def __init__(self, flow: Flow, ctx: TransportContext) -> None:
        super().__init__(flow, ctx)
        self._prev_rtt = self.base_rtt
        self._gradient = 0.0
        self._neg_streak = 0

    def ecn_capable(self) -> bool:
        return False

    def cc_on_ack(self, ce: bool, rtt: float) -> None:
        if rtt <= 0:
            return
        new_gradient = (rtt - self._prev_rtt) / max(self.base_rtt, 1e-9)
        self._prev_rtt = rtt
        self._gradient = ((1 - self.ALPHA_EWMA) * self._gradient
                          + self.ALPHA_EWMA * new_gradient)

        if rtt < self.T_LOW_SCALE * self.base_rtt:
            self.cwnd += self.DELTA / max(self.cwnd, 1.0)
            self._neg_streak = 0
        elif rtt > self.T_HIGH_SCALE * self.base_rtt:
            self.cwnd = max(1.0, self.cwnd
                            * (1.0 - self.BETA
                               * (1.0 - (self.T_HIGH_SCALE * self.base_rtt)
                                  / rtt)))
            self._neg_streak = 0
        elif self._gradient <= 0:
            self._neg_streak += 1
            boost = self.HAI_N if self._neg_streak >= self.HAI_N else 1
            self.cwnd += boost * self.DELTA / max(self.cwnd, 1.0)
        else:
            self._neg_streak = 0
            self.cwnd = max(1.0, self.cwnd
                            * (1.0 - self.BETA * min(self._gradient, 1.0)))
        self._cap_cwnd()

    def cc_on_fast_rtx(self) -> None:
        self.cwnd = max(1.0, self.cwnd / 2.0)

    def cc_on_rto(self) -> None:
        self.cwnd = 1.0


class Timely(Scheme):
    name = "timely"

    sender_cls = TimelySender
    receiver_cls = WindowReceiver
