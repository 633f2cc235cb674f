"""Mirror-symmetric packet tagging (§4.2, Fig. 6).

Eight strict priorities are split in half: P0–P3 carry HCP (normal)
packets, P4–P7 carry LCP (opportunistic) packets.  Each half applies the
same rule:

* a flow **identified as large** by the buffer-aware approach uses the
  half's lowest priority (P3 / P7) from its very first packet;
* an **unidentified** flow starts at the half's highest priority (P0 /
  P4) and is demoted one level at a time as it sends more bytes
  (PIAS-style aging over the remaining three levels).

Because the two halves demote "at the same pace" (P_i and P_{i+4}), LCP
traffic of *any* flow is always strictly below all HCP traffic — the
property §4.3 relies on for HCP protection and large-flow non-starvation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

HCP_LOWEST = 3
LCP_OFFSET = 4


@dataclass(frozen=True)
class MirrorTagger:
    """Per-flow priority assigner.  Immutable: flows with the same
    parameters may share one.

    Parameters
    ----------
    identified_large:
        Result of buffer-aware identification at flow start.
    demotion_thresholds:
        Bytes-sent boundaries for demotion through the three high levels
        (unidentified flows only).  Must be non-decreasing.
    """

    identified_large: bool
    demotion_thresholds: Sequence[int] = (100_000, 1_000_000, 10_000_000)

    def __post_init__(self) -> None:
        thresholds = tuple(self.demotion_thresholds)
        if list(thresholds) != sorted(thresholds):
            raise ValueError("demotion thresholds must be non-decreasing")
        if len(thresholds) != HCP_LOWEST:
            raise ValueError("exactly three demotion thresholds required "
                             "(levels P0->P1->P2->P3)")
        object.__setattr__(self, "demotion_thresholds", thresholds)

    def hcp_priority(self, bytes_sent: int) -> int:
        """Priority for a normal (HCP) packet after ``bytes_sent`` bytes."""
        if self.identified_large:
            return HCP_LOWEST
        for level, threshold in enumerate(self.demotion_thresholds):
            if bytes_sent < threshold:
                return level
        return HCP_LOWEST

    def lcp_priority(self, bytes_sent: int) -> int:
        """Priority for an opportunistic (LCP) packet — the mirror image."""
        return self.hcp_priority(bytes_sent) + LCP_OFFSET
