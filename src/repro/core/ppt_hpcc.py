"""PPT over HPCC — the integration sketched in the paper's appendix B.

    "PPT's design may also be used as a building block for INT-based
    transport like HPCC.  For example, one may open a PPT LCP loop to
    send low-priority opportunistic packets whenever HPCC's estimated
    in-flight bytes are smaller than BDP, and use PPT's buffer-aware
    scheduling to prioritize small flows over large ones."

This module implements exactly that extension (the paper leaves it as a
suggestion, so this is an *extension*, not a reproduced experiment):

* primary loop = :class:`~repro.transport.hpcc.HpccSender` (INT-driven
  window, all the telemetry machinery intact);
* LCP trigger — once per RTT, if the INT-estimated utilisation of the
  path's most-loaded hop is below the target (i.e. in-flight below BDP),
  open/refresh the LCP loop with the window gap to BDP;
* PPT's mirror-symmetric scheduling and buffer-aware identification
  apply to both loops.

The ``ext-baselines`` figure runs it against plain HPCC; claim rows
``ext-baselines-ppt-hpcc-*`` check the comparison.
"""

from __future__ import annotations

from typing import Optional

from ..transport.base import Flow, TransportContext
from ..transport.hpcc import HpccSender
from .graft import PptGraft
from .ppt import PptFamily


class PptHpccSender(PptGraft, HpccSender):
    """HPCC sender carrying PPT's LCP loop and scheduler."""

    # The LCP trigger threshold on the smoothed INT utilisation: below
    # this, the path has spare capacity worth filling.
    SPARE_UTILISATION = 0.85

    def __init__(self, flow: Flow, ctx: TransportContext,
                 scheme: "PptHpcc") -> None:
        super().__init__(flow, ctx, scheme)
        self._last_u: Optional[float] = None

    def start(self) -> None:
        super().start()
        self._check_event = self.sim.schedule(self.base_rtt,
                                              self._spare_check)

    def _utilisation(self, records):
        u = super()._utilisation(records)
        if u is not None:
            self._last_u = u
        return u

    def _spare_check(self) -> None:
        """Once per RTT: open the LCP loop while INT says the path has
        spare capacity (in-flight below BDP)."""
        self._per_rtt_check(
            self._last_u is not None
            and self._last_u < self.SPARE_UTILISATION,
            self._spare_check)


class PptHpcc(PptFamily):
    """Extension: PPT's dual loop + scheduling grafted onto HPCC."""

    name = "ppt-hpcc"
    sender_cls = PptHpccSender
