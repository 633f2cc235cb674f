"""PPT — the assembled pragmatic transport (§2.3 "putting it all together").

A PPT flow is one flow split in two: the HCP loop (plain DCTCP) sends
normal packets in order from the first byte of the send buffer, while the
LCP loop (:mod:`repro.core.lcp`) sends opportunistic packets from the very
last byte.  The buffer-aware scheduler tags HCP packets P0–P3 and LCP
packets P4–P7 (:mod:`repro.core.tagging`), with large flows identified at
the first syscall (:mod:`repro.core.identification`).

The receiver isolates the two loops (§5.2): high-priority packets go
through the standard per-packet ACK path feeding DCTCP; opportunistic
packets are counted and acknowledged with one low-priority ACK per *two*
LP data packets, carrying SACK tags for both and the ECN-Echo of either.
When the ACK for LP data advances past the HCP loop's next sequence, the
sender simply advances its head ("tweak the ACK processing by advancing
the send queue's head"), implemented here by the sender's shared
``cum`` / ``sacked`` scoreboard that the HCP head pointer skips over.

Ablation flags reproduce the §6.3.1 variants:

* ``lcp_ecn=False``   — Fig. 15 (no ECN for the LCP loop),
* ``ewd=False``       — Fig. 16 (line-rate LCP instead of EWD),
* ``scheduling=False``— Fig. 17 (all flows share one priority per loop),
* ``identification=False`` — Fig. 18 (every flow treated as unidentified),
* ``lcp_enabled=False``    — degenerates to plain DCTCP + scheduling.
"""

from __future__ import annotations

from ..sim.packet import DATA, Packet, make_ack
from ..transport.base import NO_SEQS, Flow, Scheme, TransportContext
from ..transport.dctcp import DctcpSender
from ..transport.window import WindowReceiver
from .graft import PptGraft

# Delayed-ACK timer for the 2:1 low-priority ACKs (seconds): an odd LP
# data packet left un-acked (no pair arrived) is acknowledged after this
# delay instead of waiting for the sender's RTO.
LP_ACK_DELAY = 5e-4


class PptSender(PptGraft, DctcpSender):
    """HCP (DCTCP) sender carrying the graft; its trigger is DCTCP's
    per-window alpha update (case 2) plus the flow-start loop (case 1)."""

    def on_window_update(self) -> None:
        if self.scheme.lcp_enabled:
            self.lcp.on_window_update()

    def start(self) -> None:
        super().start()
        if self.scheme.lcp_enabled:
            self.lcp.on_flow_start()


class PptReceiver(WindowReceiver):
    """Receiver with the 2:1 low-priority ACK rule (§3.2, §5.2).

    An LP data packet with no pair yet is *pending*: its ACK rides the
    next LP arrival.  The pending entry must never be stranded — the
    final LP packet of an odd-count batch used to sit un-acked until the
    sender's RTO re-sent it.  Two flushes close that hole: a short
    delayed-ACK timer (:data:`LP_ACK_DELAY`), and an immediate flush
    when the flow completes (via either loop).
    """

    # one receiver per flow, and every receiver outlives its flow
    __slots__ = ("_lp_pending", "_lp_pending_ce", "_lp_last_pkt",
                 "_lp_flush_event", "lp_acks_sent")

    def __init__(self, flow: Flow, ctx: TransportContext) -> None:
        super().__init__(flow, ctx)
        # seqs of the LP packets the next LP-ACK covers (at most two)
        self._lp_pending: tuple = ()
        self._lp_pending_ce = False
        self._lp_last_pkt: Packet = None
        self._lp_flush_event = None
        self.lp_pkts_received = 0
        self.lp_acks_sent = 0

    def on_packet(self, pkt: Packet) -> None:
        if pkt.kind == DATA and pkt.lcp:
            self._on_lp_data(pkt)
            return
        super().on_packet(pkt)
        if self._done:
            # flow completed through the HP path with an odd LP packet
            # still pending — acknowledge it now, not at the sender's RTO
            self._flush_lp_pending()

    def _on_lp_data(self, pkt: Packet) -> None:
        self.data_pkts_received += 1
        self.lp_pkts_received += 1
        seq = pkt.seq
        sacked = self.sacked
        if seq < self.cum or seq in sacked:
            self.dup_pkts_received += 1
        elif seq > self.cum:
            sacked.add(seq)
        else:
            cum = seq + 1
            while cum in sacked:
                sacked.remove(cum)
                cum += 1
            self.cum = cum
        self._lp_pending += (seq,)
        self._lp_pending_ce = self._lp_pending_ce or pkt.ecn_ce
        self._lp_last_pkt = pkt
        if len(self._lp_pending) >= 2:
            self._send_lp_ack(pkt)
        elif self._lp_flush_event is None:
            self._lp_flush_event = self.ctx.sim.schedule(
                LP_ACK_DELAY, self._lp_delayed_flush)
        if not self._done and self.cum >= self.n_packets:
            self._done = True
            self._flush_lp_pending()
            self.sacked = NO_SEQS     # as WindowReceiver.on_packet
            self.ctx.on_complete(self.flow)

    def _send_lp_ack(self, pkt: Packet) -> None:
        ack = make_ack(pkt, ack_seq=self.cum, priority=7)
        ack.lcp = True
        ack.ecn_ce = self._lp_pending_ce
        ack.sack = self._lp_pending
        self._lp_pending = ()
        self._lp_pending_ce = False
        # only a pending packet's ACK needs it (the delayed flush)
        self._lp_last_pkt = None
        self._cancel_lp_flush()
        self.lp_acks_sent += 1
        (self._send_control or self._control_sender())(ack)

    # -- pending-tail flushes ---------------------------------------------

    def _cancel_lp_flush(self) -> None:
        if self._lp_flush_event is not None:
            self._lp_flush_event.cancel()
            self._lp_flush_event = None

    def _lp_delayed_flush(self) -> None:
        """Delayed-ACK timer: acknowledge a pending odd LP packet."""
        self._lp_flush_event = None
        if self._lp_pending:
            self._send_lp_ack(self._lp_last_pkt)

    def _flush_lp_pending(self) -> None:
        """Immediately acknowledge whatever is pending (flow done)."""
        self._cancel_lp_flush()
        if self._lp_pending:
            self._send_lp_ack(self._lp_last_pkt)


class PptFamily(Scheme):
    """What the scheme of every PPT variant shares: its sender takes the
    scheme (and reads the ablation flags off it — all on unless a
    subclass says otherwise) and its receiver speaks the 2:1 LP-ACK
    rule."""

    lcp_ecn = ewd = scheduling = identification = True
    receiver_cls = PptReceiver

    def make_sender(self, flow: Flow, ctx: TransportContext):
        return self.sender_cls(flow, ctx, self)


class Ppt(PptFamily):
    """The pragmatic transport.  See module docstring for the flags."""

    name = "ppt"
    sender_cls = PptSender

    def __init__(
        self,
        *,
        lcp_enabled: bool = True,
        lcp_ecn: bool = True,
        ewd: bool = True,
        scheduling: bool = True,
        identification: bool = True,
    ) -> None:
        self.lcp_enabled = lcp_enabled
        self.lcp_ecn = lcp_ecn
        self.ewd = ewd
        self.scheduling = scheduling
        self.identification = identification
        suffix = []
        if not lcp_enabled:
            suffix.append("nolcp")
        if not lcp_ecn:
            suffix.append("noecn")
        if not ewd:
            suffix.append("noewd")
        if not scheduling:
            suffix.append("nosched")
        if not identification:
            suffix.append("noident")
        if suffix:
            self.name = "ppt-" + "-".join(suffix)
