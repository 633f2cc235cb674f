"""DCTCP [Alizadeh et al., SIGCOMM 2010] — the paper's HCP and main baseline.

The sender maintains ``alpha``, an EWMA of the fraction of ECN-marked
ACKs per window of data (Eq. 1 in the PPT paper)::

    alpha <- (1 - g) * alpha + g * F

and on windows containing at least one mark cuts ``cwnd`` by
``alpha / 2``.  Growth between cuts is standard slow start / congestion
avoidance.  The sender exposes the two quantities PPT's LCP consumes:

* ``alpha`` and its running minimum over recent windows (Eq. 2 trigger),
* ``wmax`` — the maximum congestion window experienced, restricted to
  post-startup windows per the paper's footnote 3.
"""

from __future__ import annotations

from collections import deque

from .base import Flow, Scheme, TransportContext
from .window import INIT_CWND, WindowReceiver, WindowSender

# Number of recent per-window alpha values over which PPT computes its
# running minimum (the paper says "the past RTTs"; a short sliding window
# keeps the trigger responsive).
ALPHA_HISTORY = 16
# alpha's EWMA gain g (the DCTCP paper's default)
DCTCP_G = 1.0 / 16.0


class DctcpSender(WindowSender):
    """Window sender running the DCTCP congestion-control algorithm."""

    def __init__(self, flow: Flow, ctx: TransportContext) -> None:
        super().__init__(flow, ctx)
        self.alpha = 1.0          # Linux dctcp initialises alpha to 1
        self.startup_done = False  # True after the first window cut / loss
        self.wmax: float = 0.0     # max cwnd, post-startup only (footnote 3)
        self.alpha_history: deque = deque(maxlen=ALPHA_HISTORY)
        # per-window mark accounting
        self._win_acks = 0
        self._win_ce = 0
        self._win_end = INIT_CWND
        self._last_alpha_update = 0.0

    def on_window_update(self) -> None:
        """A window just ended (``alpha`` updated, any cut applied).  PPT
        opens its case-2 loop here; plain DCTCP does nothing."""

    def stop(self) -> None:
        super().stop()
        # a finished flow closes no more windows (``alpha_min`` falls
        # back to ``alpha``), and the deque is ~750 bytes per retired
        # flow on a streamed run
        self.alpha_history = ()

    # -- congestion control -------------------------------------------------

    def cc_on_ack(self, ce: bool, rtt: float) -> None:
        self._win_acks += 1
        if ce:
            self._win_ce += 1
        # growth: slow start until first mark/loss, then +1/cwnd per ACK
        cwnd = self.cwnd
        if cwnd < self.ssthresh and not self.startup_done:
            cwnd += 1.0
        else:
            cwnd += 1.0 / max(cwnd, 1.0)
        self.cwnd = cwnd
        self._cap_cwnd()
        if self.startup_done and self.cwnd > self.wmax:
            self.wmax = self.cwnd

        window_elapsed = self.cum >= self._win_end
        time_elapsed = self.sim.now - self._last_alpha_update > self.srtt
        if window_elapsed or (time_elapsed and self._win_acks > 0):
            self._end_of_window()

    def _end_of_window(self) -> None:
        fraction = self._win_ce / max(1, self._win_acks)
        self.alpha = (1.0 - DCTCP_G) * self.alpha + DCTCP_G * fraction
        self.alpha_history.append(self.alpha)
        if self._win_ce > 0:
            if not self.startup_done:
                self.startup_done = True
                self.ssthresh = max(self.cwnd, 2.0)
                self.wmax = max(self.wmax, self.cwnd)
            self.cwnd = max(1.0, self.cwnd * (1.0 - self.alpha / 2.0))
        self._win_acks = 0
        self._win_ce = 0
        self._win_end = max(self.send_ptr, self.cum + 1)
        self._last_alpha_update = self.sim.now
        self.on_window_update()

    def cc_on_fast_rtx(self) -> None:
        self.startup_done = True
        self.ssthresh = max(self.cwnd / 2.0, 2.0)
        self.cwnd = self.ssthresh

    def cc_on_rto(self) -> None:
        self.startup_done = True
        self.ssthresh = max(self.cwnd / 2.0, 2.0)
        self.cwnd = 1.0

    # -- PPT-facing state ----------------------------------------------------

    @property
    def alpha_min(self) -> float:
        """Minimum alpha over the recent windows (Eq. 2's alpha_min)."""
        if not self.alpha_history:
            return self.alpha
        return min(self.alpha_history)


class Dctcp(Scheme):
    """Plain DCTCP: single loop, single priority (P0)."""

    name = "dctcp"

    sender_cls = DctcpSender
    receiver_cls = WindowReceiver
