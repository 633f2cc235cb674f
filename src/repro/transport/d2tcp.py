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

from .dctcp import Dctcp, DctcpSender

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

    def cut_penalty(self) -> float:
        # the gamma-corrected cut: p = alpha^d instead of alpha
        return self.alpha ** self.deadline_factor()


class D2tcp(Dctcp):
    name = "d2tcp"
    sender_cls = D2tcpSender
