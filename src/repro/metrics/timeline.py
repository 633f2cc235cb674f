"""Per-sender time series: congestion window and LCP activity.

The paper's Fig. 5 illustrates the dual-loop dynamics — DCTCP's
sawtooth with opportunistic windows slotted into the troughs.  This
recorder samples a chosen sender's state on a fixed interval so that
behaviour can be inspected (see ``examples/dual_loop_timeline.py`` for
an ASCII rendering).

Works with any window-based sender; PPT-specific fields (alpha, LCP
in-flight, loops opened) are recorded when present.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..sim.engine import Simulator


@dataclass
class TimelineSample:
    time: float
    cwnd: float
    outstanding: int
    alpha: Optional[float] = None
    lcp_active: Optional[bool] = None
    lcp_inflight: Optional[int] = None
    lcp_loops: Optional[int] = None


class SenderTimeline:
    """Samples one sender every ``interval`` seconds until it finishes."""

    def __init__(self, sim: Simulator, sender, interval: float) -> None:
        self.sim = sim
        self.sender = sender
        self.interval = interval
        self.samples: List[TimelineSample] = []
        sim.schedule(0.0, self._sample)

    def _sample(self) -> None:
        sender = self.sender
        if sender.finished:
            return
        sample = TimelineSample(
            time=self.sim.now,
            cwnd=float(sender.cwnd),
            outstanding=len(sender.outstanding),
        )
        if hasattr(sender, "alpha"):
            sample.alpha = sender.alpha
        lcp = sender.lcp
        if lcp is not None:
            sample.lcp_active = lcp.active
            sample.lcp_inflight = len(lcp.outstanding)
            sample.lcp_loops = lcp.loops_opened
        self.samples.append(sample)
        self.sim.schedule(self.interval, self._sample)

    # -- summaries -----------------------------------------------------------

    def cwnd_series(self) -> List[float]:
        return [s.cwnd for s in self.samples]

    def max_cwnd(self) -> float:
        return max((s.cwnd for s in self.samples), default=float("nan"))

    def lcp_duty_cycle(self) -> float:
        """Fraction of samples with an active LCP loop (NaN if the
        sender has no LCP)."""
        flagged = [s.lcp_active for s in self.samples
                   if s.lcp_active is not None]
        if not flagged:
            return float("nan")
        return sum(flagged) / len(flagged)

    def sawtooth_cuts(self) -> int:
        """Number of downward cwnd steps of at least 10% — a cheap proxy
        for DCTCP's window cuts."""
        cuts = 0
        series = self.cwnd_series()
        for prev, cur in zip(series, series[1:]):
            if cur < prev * 0.9:
                cuts += 1
        return cuts
