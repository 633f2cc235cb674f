"""The *hypothetical* DCTCP of §2.3 (Figs. 2, 3, 20).

Construction follows the paper exactly: "We first run the default DCTCP
and record each flow's maximum window (MW).  Then, we run the
hypothetical DCTCP that sends just enough opportunistic packets to fill
the gap to MW for each flow in each RTT."

:class:`MwRecordingDctcp` is pass one — plain DCTCP that stores each
flow's maximum congestion window in a shared table keyed by flow id.
:class:`HypotheticalDctcp` is pass two — DCTCP plus an oracle filler that
every RTT tops up low-priority in-flight opportunistic packets to
``fill_factor * MW - cwnd`` (``fill_factor`` sweeps Fig. 3's 50%–150%).
Opportunistic packets ride P4 so they never displace normal traffic, and
are paced over the RTT.  The oracle is deliberately ECN-blind — it fills
to the target no matter what, which is exactly what makes the Fig. 3
overfill sweep hurt.

Experiment drivers use :func:`two_pass` from
:mod:`repro.experiments.runner` to run both passes with the same seed.
"""

from __future__ import annotations

from typing import Dict

from ..sim.packet import ACK, Packet
from ..transport.base import Flow, Scheme, TransportContext
from ..transport.dctcp import DctcpSender
from ..transport.window import INIT_CWND, TailLoop, WindowReceiver


class _RecordingSender(DctcpSender):
    def __init__(self, flow: Flow, ctx: TransportContext,
                 table: Dict[int, float]) -> None:
        super().__init__(flow, ctx)
        self._table = table

    def stop(self) -> None:
        # Footnote 3: only congestion-avoidance windows count towards MW;
        # a flow that never left startup reports its final window instead
        # of the slow-start overshoot peak.
        if self.startup_done and self.wmax > 0:
            mw = self.wmax
        else:
            mw = min(self.max_cwnd_seen, self.cwnd + INIT_CWND)
        self._table[self.flow.flow_id] = mw
        super().stop()


class MwRecordingDctcp(Scheme):
    """Pass one: default DCTCP, recording each flow's maximum window."""

    name = "dctcp-recording"
    receiver_cls = WindowReceiver

    def __init__(self) -> None:
        self.mw_table: Dict[int, float] = {}

    def make_sender(self, flow: Flow, ctx: TransportContext):
        return _RecordingSender(flow, ctx, self.mw_table)


class _HypotheticalSender(DctcpSender):
    """DCTCP + per-RTT oracle gap filler (the shared
    :class:`~repro.transport.window.TailLoop` mechanism under the
    oracle's policy: top up to ``fill_factor * MW`` every RTT)."""

    def __init__(self, flow: Flow, ctx: TransportContext,
                 mw: float, fill_factor: float) -> None:
        super().__init__(flow, ctx)
        # Filling beyond the path's capacity (BDP plus about one marking
        # threshold of buffer) is pure loss — exactly what Fig. 3 shows
        # for fill factors above 1.
        mw = min(mw, 2.0 * ctx.bdp_packets(flow))
        self.target_window = fill_factor * mw
        self.lcp = TailLoop(self)
        self._fill_timer = None

    def start(self) -> None:
        super().start()
        self.lcp.open()
        self._fill_round()

    def stop(self) -> None:
        super().stop()
        self.lcp.close()
        if self._fill_timer is not None:
            self._fill_timer.cancel()
            self._fill_timer = None

    def _fill_round(self) -> None:
        self._fill_timer = None
        if self.finished:
            return
        loop = self.lcp
        # purge presumed-lost opportunistic packets
        loop.purge(self.sim.now - 2.0 * max(self.srtt, self.base_rtt))
        gap = int(self.target_window - self.cwnd - len(loop.outstanding))
        rtt = max(self.base_rtt, 1e-9)
        if gap > 0:
            loop.pace(gap, rtt / gap, self._fill_one)
        self._fill_timer = self.sim.schedule(max(self.srtt, rtt),
                                             self._fill_round)

    def _fill_one(self) -> None:
        seq = self.lcp.pick_tail()
        if seq is not None:
            # P4, so the filler never displaces normal traffic
            self.lcp.transmit(seq, 4, True)

    # Like PPT's HCP (see repro.core.graft), the primary loop does not
    # skip packets the filler has in flight: completion must never be
    # gated on a queued low-priority copy.

    def on_packet(self, pkt: Packet) -> None:
        if pkt.kind != ACK or self.finished:
            return
        if not pkt.lcp:
            self.handle_ack(pkt)
        elif self.lcp.absorb(pkt):
            self.try_send()


class HypotheticalDctcp(Scheme):
    """Pass two: fill each flow's window gap to ``fill_factor * MW``."""

    name = "hypothetical-dctcp"
    receiver_cls = WindowReceiver

    def __init__(self, mw_table: Dict[int, float], fill_factor: float = 1.0):
        self.mw_table = mw_table
        self.fill_factor = fill_factor
        if fill_factor != 1.0:
            self.name = f"hypothetical-dctcp-{int(fill_factor * 100)}"

    def make_sender(self, flow: Flow, ctx: TransportContext):
        mw = self.mw_table.get(flow.flow_id, float(INIT_CWND))
        return _HypotheticalSender(flow, ctx, mw, self.fill_factor)
