"""HPCC [Li et al., SIGCOMM 2019] — INT-driven high-precision CC.

Every data packet carries in-band network telemetry: each switch hop
appends ``(qlen, txBytes, timestamp, linkRate)``.  The ACK echoes the
records and the sender estimates per-hop utilisation::

    U_j = qlen_j / (rate_j * T)  +  txRate_j / rate_j

with ``txRate_j`` computed from consecutive samples of the same hop.  The
window tracks ``W = W_c / (maxU / eta) + W_ai`` (multiplicative toward the
target utilisation ``eta``), with a bounded additive probing stage, and
the reference window ``W_c`` is assigned once per RTT — all per the HPCC
paper's Algorithm 1.

The PPT paper's point (Table 1, appendix D) is that HPCC utilises spare
bandwidth gracefully but (a) needs INT switches and (b) has no in-network
priority scheduling — both visible here: INT is a switch feature we must
enable, and every packet rides P0.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..sim.packet import Packet
from .base import Flow, Scheme, TransportContext
from .window import WindowReceiver, WindowSender


class HpccSender(WindowSender):
    ETA = 0.95          # target utilisation
    MAX_STAGE = 5       # additive probing stages
    WAI_PACKETS = 0.5   # additive increase per update, in packets

    def __init__(self, flow: Flow, ctx: TransportContext) -> None:
        super().__init__(flow, ctx)
        self.cwnd = float(self.ctx.bdp_packets(flow))  # start at line rate
        self.w_c = self.cwnd
        self.inc_stage = 0
        self._last_ref_update = 0.0
        # per-hop previous INT sample: hop index -> (txBytes, timestamp)
        self._prev: Dict[int, Tuple[int, float]] = {}

    def ecn_capable(self) -> bool:
        return False

    def build_packet(self, seq: int) -> Packet:
        pkt = super().build_packet(seq)
        pkt.int_records = []  # switches append INT at every hop
        return pkt

    def _utilisation(self, records) -> Optional[float]:
        max_u = None
        for hop, (qlen, tx_bytes, ts, rate) in enumerate(records):
            prev = self._prev.get(hop)
            self._prev[hop] = (tx_bytes, ts)
            if prev is None:
                continue
            prev_bytes, prev_ts = prev
            dt = ts - prev_ts
            if dt <= 0:
                continue
            tx_rate = (tx_bytes - prev_bytes) * 8.0 / dt
            u = qlen * 8.0 / (rate * self.base_rtt) + tx_rate / rate
            if max_u is None or u > max_u:
                max_u = u
        return max_u

    def cc_on_ack(self, ce: bool, rtt: float) -> None:
        records = None
        # The ACK's INT records are stashed on the packet by make_ack; the
        # window machinery hands us only (ce, rtt), so we pull them from
        # the last handled ACK (set in handle_ack below).
        records = self._pending_int
        self._pending_int = None
        if not records:
            return
        u = self._utilisation(records)
        if u is None:
            return
        u = max(u, 0.01)  # an idle path reads as (near-)zero utilisation
        if u >= self.ETA or self.inc_stage >= self.MAX_STAGE:
            self.cwnd = max(1.0, self.w_c / (u / self.ETA) + self.WAI_PACKETS)
            self.inc_stage = 0
        else:
            self.cwnd = self.w_c + self.WAI_PACKETS
            self.inc_stage += 1
        self._cap_cwnd()
        # reference window: once per RTT
        if self.sim.now - self._last_ref_update >= self.srtt:
            self.w_c = self.cwnd
            self._last_ref_update = self.sim.now

    _pending_int = None

    def handle_ack(self, pkt: Packet) -> None:
        self._pending_int = pkt.int_records
        super().handle_ack(pkt)

    def cc_on_fast_rtx(self) -> None:
        self.cwnd = max(1.0, self.cwnd / 2.0)
        self.w_c = self.cwnd

    def cc_on_rto(self) -> None:
        self.cwnd = 1.0
        self.w_c = self.cwnd


class Hpcc(Scheme):
    name = "hpcc"

    sender_cls = HpccSender
    receiver_cls = WindowReceiver
