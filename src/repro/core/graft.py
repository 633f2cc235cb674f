"""PPT's graft: the attachment that turns a window transport into a
dual-loop one, written once.

The paper's claim (§6.2 "working with delay-based transport", Fig. 14;
appendix B for INT-based transport) is that PPT is a *building block*:
any primary loop that can tell when it is leaving bandwidth unused may
carry an LCP loop and PPT's buffer-aware scheduling.  In code that claim
is :class:`PptGraft` — mix it in ahead of a
:class:`~repro.transport.window.WindowSender` subclass and the sender
gains large-flow identification (:mod:`.identification`), mirror tagging
(:mod:`.tagging`), an :class:`~repro.core.lcp.LcpController` as
``self.lcp``, LP-ACK dispatch and loop shutdown.  What is left for a
variant to write is its *trigger*: when the primary loop has spare
capacity and a loop should open.
"""

from __future__ import annotations

from functools import lru_cache

from ..sim.packet import ACK, Packet
from ..transport.base import Flow, TransportContext
from .identification import identify_large
from .lcp import LcpController
from .tagging import MirrorTagger

# one immutable tagger per (identified_large, thresholds), validated
# once; a bad key raises here and is not cached
_shared_tagger = lru_cache(maxsize=None)(MirrorTagger)


class PptGraft:
    """Sender mixin; ``scheme`` supplies the §6.3.1 ablation flags
    (``lcp_ecn``, ``ewd``, ``scheduling``, ``identification``)."""

    # armed timer of a once-per-RTT trigger (see _per_rtt_check)
    _check_event = None

    def __init__(self, flow: Flow, ctx: TransportContext, scheme) -> None:
        super().__init__(flow, ctx)
        self.scheme = scheme
        cfg = ctx.config
        self.identified_large = bool(
            scheme.identification
            and identify_large(flow.first_syscall_bytes or 0,
                               cfg.identification_threshold)
        )
        self.tagger = _shared_tagger(self.identified_large,
                                     tuple(cfg.demotion_thresholds))
        self.lcp = LcpController(
            self,
            ecn=scheme.lcp_ecn,
            ewd=scheme.ewd,
            scheduling=scheme.scheduling,
            delay_large_first_loop=scheme.identification,
        )

    def priority_for(self, seq: int) -> int:
        if not self.scheme.scheduling:
            return 0
        bytes_sent = seq * self._payload
        return self.tagger.hcp_priority(bytes_sent)

    # NOTE: the primary loop does *not* skip packets the LCP loop has in
    # flight.  Exactly like the
    # kernel prototype, the head keeps transmitting in order and only
    # advances past bytes the receiver has already acknowledged via
    # LP-ACKs (§5.2's snd_nxt tweak, realised through the shared
    # ``cum`` / ``sacked`` scoreboard).  The occasional duplicate costs
    # only spare low-priority bandwidth; gating completion on a queued
    # P4-P7 packet would cost latency.

    def stop(self) -> None:
        super().stop()
        self.lcp.close()
        if self._check_event is not None:
            self._check_event.cancel()
            self._check_event = None

    def on_packet(self, pkt: Packet) -> None:
        if pkt.kind != ACK or self.finished:
            return
        if pkt.lcp:
            self.lcp.on_lp_ack(pkt)
        else:
            self.handle_ack(pkt)

    def _per_rtt_check(self, spare: bool, again) -> None:
        """One tick of a once-per-RTT trigger, for primaries without
        DCTCP's per-window alpha signal: while the path has ``spare``
        capacity open a loop with the window gap to BDP, then re-arm
        ``again`` (the variant's trigger method) an RTT out."""
        self._check_event = None
        if self.finished:
            return
        if spare and not self.lcp.active:
            gap = self.ctx.bdp_packets(self.flow) - self.cwnd
            self.lcp.open_loop(gap)
        self._check_event = self.sim.schedule(
            max(self.srtt, self.base_rtt), again)
