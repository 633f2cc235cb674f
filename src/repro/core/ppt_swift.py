"""PPT over a delay-based transport (§6.2 "working with delay-based
transport", Fig. 14).

The paper demonstrates that PPT's design is a building block, not a
DCTCP-only trick, by attaching it to a Swift-like transport: "this
variant starts an LCP loop whenever a flow's transmission delay falls
below the target delay and closes it when it does not receive ACKs for
two consecutive RTTs.  Moreover, this variant uses the same flow
scheduling method as PPT."

Implementation: a :class:`~repro.transport.swift.SwiftSender` carrying
:class:`~repro.core.graft.PptGraft`.  The case-1/case-2 alpha triggers
are replaced by a per-RTT check of ``srtt < target_delay``; the loop's
initial window fills the gap from the current window to the path BDP.
"""

from __future__ import annotations

from ..transport.swift import SwiftSender
from .graft import PptGraft
from .ppt import PptFamily


class PptSwiftSender(PptGraft, SwiftSender):
    """Swift sender + LCP loop + mirror-symmetric scheduling."""

    def start(self) -> None:
        super().start()
        self._check_event = self.sim.schedule(self.base_rtt, self._delay_check)

    def _delay_check(self) -> None:
        """Once per RTT: open an LCP loop while delay is under target."""
        self._per_rtt_check(self.below_target, self._delay_check)


class PptSwift(PptFamily):
    """PPT's dual loop + scheduling grafted onto the Swift-like transport."""

    name = "ppt-swift"
    sender_cls = PptSwiftSender
