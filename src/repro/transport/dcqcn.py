"""DCQCN [Zhu et al., SIGCOMM 2015] — ECN-based rate control for RDMA.

Cited in the paper's appendix C.  DCQCN is *rate*-based (the NIC paces a
current rate RC toward a target rate RT), with QCN-style additive and
hyper-additive recovery:

* on a congestion notification (we use the per-window ECN fraction,
  mirroring how CNPs are coalesced): ``RT = RC; RC = RC * (1 - a/2)``
  where ``a`` is DCQCN's EWMA of marking, and the recovery state resets;
* otherwise, every recovery period: ``RC = (RT + RC) / 2`` (fast
  recovery), and after F periods RT itself grows additively (+R_AI),
  then hyper-additively (+R_HAI) — the standard three-stage recovery.

Windows and rates are interchangeable at this model's granularity, so
the sender keeps DCQCN's rate state in packets-per-RTT units and applies
it as a congestion window, like the paper's other rate-based baselines.
"""

from __future__ import annotations

from .base import Flow, Scheme, TransportContext
from .window import WindowReceiver, WindowSender


class DcqcnSender(WindowSender):
    G = 1.0 / 16.0       # alpha EWMA gain
    F_FAST = 5           # fast-recovery periods before additive increase
    R_AI = 1.0           # additive increase, packets/RTT
    R_HAI = 5.0          # hyper increase after 2F periods

    def __init__(self, flow: Flow, ctx: TransportContext) -> None:
        super().__init__(flow, ctx)
        # start at line rate, as RDMA NICs do
        self.cwnd = float(ctx.bdp_packets(flow))
        self.alpha = 1.0
        self.target = self.cwnd       # RT
        self._periods = 0             # recovery periods since last CNP
        self._win_acks = 0
        self._win_ce = 0
        self._last_update = 0.0

    def cc_on_ack(self, ce: bool, rtt: float) -> None:
        self._win_acks += 1
        if ce:
            self._win_ce += 1
        if self.sim.now - self._last_update < max(self.srtt, 1e-9):
            return
        self._last_update = self.sim.now
        fraction = self._win_ce / max(1, self._win_acks)
        self.alpha = (1 - self.G) * self.alpha + self.G * fraction
        if self._win_ce > 0:
            # congestion notification: cut and remember the target
            self.target = self.cwnd
            self.cwnd = max(1.0, self.cwnd * (1.0 - self.alpha / 2.0))
            self._periods = 0
        else:
            # recovery
            self._periods += 1
            if self._periods > 2 * self.F_FAST:
                self.target += self.R_HAI
            elif self._periods > self.F_FAST:
                self.target += self.R_AI
            self.cwnd = (self.target + self.cwnd) / 2.0
        self._win_acks = 0
        self._win_ce = 0
        self._cap_cwnd()

    def cc_on_fast_rtx(self) -> None:
        self.target = self.cwnd
        self.cwnd = max(1.0, self.cwnd / 2.0)
        self._periods = 0

    def cc_on_rto(self) -> None:
        self.target = max(self.cwnd / 2.0, 1.0)
        self.cwnd = 1.0
        self._periods = 0


class Dcqcn(Scheme):
    name = "dcqcn"

    sender_cls = DcqcnSender
    receiver_cls = WindowReceiver
