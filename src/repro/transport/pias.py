"""PIAS [Bai et al., NSDI 2015] — information-agnostic flow scheduling.

PIAS keeps DCTCP's rate control and adds multi-level feedback-queue
scheduling: every flow starts at the highest priority and is demoted as
it sends more bytes, so long flows sink to low priorities *during*
transmission.  The PPT paper's critique (§2.3) — demotion happens "too
late to isolate small flows" — falls out of this model naturally: a large
flow's first ``demotion_thresholds[0]`` bytes ride at P0 alongside small
flows.
"""

from __future__ import annotations

from .base import Flow, TransportContext
from .dctcp import Dctcp, DctcpSender


def demotion_priority(bytes_sent: int, thresholds) -> int:
    """Map cumulative bytes sent to a priority level (0 = highest)."""
    for level, threshold in enumerate(thresholds):
        if bytes_sent < threshold:
            return level
    return len(thresholds)


class PiasSender(DctcpSender):
    """DCTCP sender with bytes-sent priority demotion."""

    def priority_for(self, seq: int) -> int:
        bytes_sent = seq * self._payload
        return demotion_priority(bytes_sent, self.cfg.demotion_thresholds)


class Pias(Dctcp):
    name = "pias"
    sender_cls = PiasSender
