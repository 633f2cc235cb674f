"""D2TCP [Vamanan et al., SIGCOMM 2012] — deadline-aware DCTCP.

Cited in the paper's appendix C among the reactive transports that
"require multiple rounds to converge and lack flow scheduling".  D2TCP
keeps DCTCP's alpha estimate but gamma-corrects the window cut with a
per-flow urgency exponent::

    p = alpha ** d          # d = deadline imminence factor
    cwnd <- cwnd * (1 - p/2)

where ``d`` grows as the flow's deadline approaches (far-deadline flows
back off more, near-deadline flows less).  ``d`` is clamped to
[D_MIN, D_MAX] as in the original paper; flows without a deadline behave
exactly like DCTCP (d = 1).
"""

from __future__ import annotations

from .base import Flow, Scheme, TransportContext
from .dctcp import DCTCP_G, Dctcp, DctcpSender

D_MIN = 0.5
D_MAX = 2.0


class D2tcpSender(DctcpSender):
    """DCTCP with the gamma-corrected, deadline-aware window cut."""

    def deadline_factor(self) -> float:
        """Urgency exponent d = Tc / D: expected completion time over
        remaining time to deadline, clamped to [D_MIN, D_MAX]."""
        deadline = getattr(self.flow, "deadline", None)
        if deadline is None:
            return 1.0
        remaining_time = deadline - self.sim.now
        if remaining_time <= 0:
            return D_MAX  # already late: maximum urgency
        remaining_packets = self.n_packets - len(self.delivered)
        rate = max(self.cwnd, 1.0) / max(self.srtt, 1e-9)  # pkts/s
        expected_completion = remaining_packets / rate
        d = expected_completion / remaining_time
        return max(D_MIN, min(D_MAX, d))

    def _end_of_window(self) -> None:
        # replicate DCTCP's per-window bookkeeping with the gamma-
        # corrected cut (p = alpha^d instead of alpha)
        fraction = self._win_ce / max(1, self._win_acks)
        self.alpha = (1.0 - DCTCP_G) * self.alpha + DCTCP_G * fraction
        self.alpha_history.append(self.alpha)
        if self._win_ce > 0:
            if not self.startup_done:
                self.startup_done = True
                self.ssthresh = max(self.cwnd, 2.0)
                self.wmax = max(self.wmax, self.cwnd)
            penalty = self.alpha ** self.deadline_factor()
            self.cwnd = max(1.0, self.cwnd * (1.0 - penalty / 2.0))
        self._win_acks = 0
        self._win_ce = 0
        self._win_end = max(self.send_ptr, self.cum + 1)
        self._last_alpha_update = self.sim.now
        self.on_window_update()


class D2tcp(Dctcp):
    name = "d2tcp"
    sender_cls = D2tcpSender
