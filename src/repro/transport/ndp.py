"""NDP [Handley et al., SIGCOMM 2017] — trimming + pull-based transport.

Fabric behaviour (enabled by :meth:`Ndp.configure_network`):

* tiny switch queues (8 full packets per port),
* **packet trimming**: on overflow the payload is cut and the 64-byte
  header is queued at the highest priority, so the receiver learns about
  every would-be loss within one RTT,
* per-packet **spraying** across all equal-cost paths.

End-host behaviour:

* the sender blasts the first RTT's worth of packets unsolicited, then
  sends exactly one packet per received PULL;
* the receiver host runs a single paced *pull queue* shared by all
  inbound flows: one PULL is released per packet-serialisation time of
  the downlink, which clocks aggregate arrivals at exactly line rate;
* a trimmed header both requests a retransmission and earns a pull slot.

The PPT paper's characterisation — "passive, 1st RTT wasted" for loaded
networks (Table 1) and good incast behaviour (Fig. 23) — both emerge from
this model.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional, Set, Tuple

from ..sim.engine import Event
from ..sim.network import Network
from ..sim.packet import ACK, DATA, HEADER, HEADER_BYTES, PULL, Packet
from ..units import serialization_delay
from .base import Flow, Scheme, TransportContext

NDP_QUEUE_PACKETS = 8


class NdpReceiverHost:
    """Per-host pull pacer and delivery tracker."""

    def __init__(self, host_id: int, ctx: TransportContext) -> None:
        self.host_id = host_id
        self.ctx = ctx
        self.flows: Dict[int, dict] = {}
        # pull queue entries: (flow_id, rtx_seq or None)
        self.pull_queue: Deque[Tuple[int, Optional[int]]] = deque()
        self._pacer_armed = False
        self._next_free = 0.0
        rate = ctx.network.hosts[host_id].uplink.rate_bps
        self._pull_interval = serialization_delay(ctx.config.mss, rate)

    def add_flow(self, flow: Flow, first_window: int) -> None:
        n = flow.n_packets(self.ctx.config.mss)
        self.flows[flow.flow_id] = {
            "flow": flow,
            "n": n,
            "delivered": set(),
            "cum": 0,
            # every packet beyond the unsolicited first window is clocked
            # out by exactly one pull
            "pull_budget": max(0, n - first_window),
            "pulls_issued": 0,
            "done": False,
            "progress_mark": 0,
        }
        # receiver-driven retransmission timer (real NDP receivers keep
        # an RTX timer per incomplete message)
        self.ctx.sim.schedule(self.ctx.config.min_rto, self._rtx_check,
                              flow.flow_id)

    def _rtx_check(self, flow_id: int) -> None:
        state = self.flows.get(flow_id)
        if state is None or state["done"]:
            return
        min_rto = self.ctx.config.min_rto
        delivered = state["delivered"]
        if len(delivered) <= state["progress_mark"]:
            # no unique-delivery progress in a full RTO: re-pull holes
            pulled = 0
            for seq in range(state["n"]):
                if seq in delivered:
                    continue
                self._enqueue_pull(flow_id, seq)
                pulled += 1
                if pulled >= 64:
                    break
        state["progress_mark"] = len(delivered)
        self.ctx.sim.schedule(min_rto, self._rtx_check, flow_id)

    # -- arrivals ---------------------------------------------------------

    def on_packet(self, pkt: Packet) -> None:
        state = self.flows.get(pkt.flow_id)
        if state is None or state["done"]:
            return
        if pkt.kind == DATA:
            delivered: Set[int] = state["delivered"]
            if pkt.seq not in delivered:
                delivered.add(pkt.seq)
                while state["cum"] in delivered:
                    state["cum"] += 1
            if len(delivered) >= state["n"]:
                state["done"] = True
                self._final_ack(state)
                self.ctx.on_complete(state["flow"])
                return
            self._maybe_enqueue_pull(pkt.flow_id, state)
        elif pkt.kind == HEADER:
            # trimmed: request retransmission via a pull for that seq
            self._enqueue_pull(pkt.flow_id, pkt.seq)

    def _maybe_enqueue_pull(self, flow_id: int, state: dict) -> None:
        # one pull per received packet, until the pull budget (everything
        # beyond the unsolicited first window) is spent
        if state["pulls_issued"] < state["pull_budget"]:
            state["pulls_issued"] += 1
            self._enqueue_pull(flow_id, None)

    def _enqueue_pull(self, flow_id: int, rtx_seq: Optional[int]) -> None:
        self.pull_queue.append((flow_id, rtx_seq))
        self._arm_pacer()

    def _arm_pacer(self) -> None:
        if self._pacer_armed or not self.pull_queue:
            return
        self._pacer_armed = True
        delay = max(0.0, self._next_free - self.ctx.sim.now)
        self.ctx.sim.schedule(delay, self._release_pull)

    def _release_pull(self) -> None:
        self._pacer_armed = False
        if not self.pull_queue:
            return
        flow_id, rtx_seq = self.pull_queue.popleft()
        self._next_free = self.ctx.sim.now + self._pull_interval
        state = self.flows.get(flow_id)
        if state is not None and not state["done"]:
            flow = state["flow"]
            pull = Packet(flow_id, self.host_id, flow.src,
                          rtx_seq if rtx_seq is not None else -1,
                          HEADER_BYTES, kind=PULL, priority=0)
            pull.ack_seq = state["cum"]
            pull.meta = rtx_seq
            self.ctx.network.send_control(pull)
        self._arm_pacer()

    def _final_ack(self, state: dict) -> None:
        flow = state["flow"]
        ack = Packet(flow.flow_id, self.host_id, flow.src, state["n"],
                     HEADER_BYTES, kind=ACK, priority=0)
        ack.ack_seq = state["n"]
        self.ctx.network.send_control(ack)


class _NdpReceiverEndpoint:
    __slots__ = ("manager",)

    def __init__(self, manager: NdpReceiverHost) -> None:
        self.manager = manager

    def on_packet(self, pkt: Packet) -> None:
        self.manager.on_packet(pkt)


class NdpSender:
    """Unsolicited first window, then one packet per PULL."""

    def __init__(self, flow: Flow, ctx: TransportContext, scheme: "Ndp") -> None:
        self.flow = flow
        self.ctx = ctx
        self.scheme = scheme
        self.sim = ctx.sim
        self.cfg = ctx.config
        self.host = ctx.network.hosts[flow.src]
        self.n_packets = flow.n_packets(self.cfg.mss)
        self.next_seq = 0
        self.acked_cum = 0
        self.rtx_queue: Deque[int] = deque()
        self.finished = False
        self.pkts_transmitted = 0
        self.pkts_retransmitted = 0
        self._rto_event: Optional[Event] = None
        if flow.first_syscall_bytes is None:
            flow.first_syscall_bytes = min(flow.size, self.cfg.send_buffer_bytes)

    def start(self) -> None:
        first_window = min(self.n_packets,
                           self.scheme.rtt_packets(self.flow, self.ctx))
        while self.next_seq < first_window:
            self._transmit(self.next_seq)
            self.next_seq += 1
        self._arm_rto()

    def stop(self) -> None:
        self.finished = True
        if self._rto_event is not None:
            self._rto_event.cancel()
            self._rto_event = None

    def _transmit(self, seq: int, retransmit: bool = False) -> None:
        payload = self.cfg.payload_per_packet()
        remaining = self.flow.size - seq * payload
        size = min(self.cfg.mss, max(1, remaining) + HEADER_BYTES)
        pkt = Packet(self.flow.flow_id, self.flow.src, self.flow.dst, seq,
                     size, kind=DATA, priority=1, ecn_capable=False)
        pkt.retransmit = retransmit
        pkt.sent_at = self.sim.now
        self.pkts_transmitted += 1
        if retransmit:
            self.pkts_retransmitted += 1
        self.host.send(pkt)

    def on_packet(self, pkt: Packet) -> None:
        if self.finished:
            return
        if pkt.kind == ACK and pkt.ack_seq >= self.n_packets:
            self.stop()
            return
        if pkt.kind != PULL:
            return
        if pkt.ack_seq > self.acked_cum:
            self.acked_cum = pkt.ack_seq
        if pkt.meta is not None:
            self.rtx_queue.append(pkt.meta)
        # one pull releases one packet: retransmissions first
        if self.rtx_queue:
            self._transmit(self.rtx_queue.popleft(), retransmit=True)
        elif self.next_seq < self.n_packets:
            self._transmit(self.next_seq)
            self.next_seq += 1
        self._arm_rto()

    def _arm_rto(self) -> None:
        if self._rto_event is not None:
            self._rto_event.cancel()
        if self.finished:
            return
        self._rto_event = self.sim.schedule(self.cfg.min_rto, self._on_rto)

    def _on_rto(self) -> None:
        if self.finished:
            return
        self.host.ops_sent += 1
        # fallback probe: recovery is receiver-driven (pull RTX timer);
        # the sender only nudges the first unacknowledged packet
        if self.acked_cum < self.n_packets:
            self._transmit(self.acked_cum, retransmit=True)
        self._rto_event = None
        self._arm_rto()


class Ndp(Scheme):
    """NDP scheme factory.  ``rtt_bytes`` as in :class:`~.homa.Homa`."""

    name = "ndp"

    def __init__(self, rtt_bytes: Optional[int] = None):
        self.rtt_bytes = rtt_bytes

    def rtt_packets(self, flow: Flow, ctx: TransportContext) -> int:
        if self.rtt_bytes is not None:
            return max(1, self.rtt_bytes // ctx.config.mss)
        return ctx.bdp_packets(flow)

    def configure_network(self, network: Network) -> None:
        network.set_spray(True)
        # NDP's tiny trimming queues are a *switch* feature; host NIC
        # egress queues stay as they are (the pull clock paces senders).
        host_uplinks = {host.uplink for host in network.hosts.values()}
        for port in network.ports:
            if port in host_uplinks:
                continue
            port.mux.trim = True
            # tiny data queues (trim beyond 8 packets); headers keep the
            # full port buffer, modelling NDP's separate header queue
            port.mux.trim_threshold_bytes = NDP_QUEUE_PACKETS * 1500

    def start_flow(self, flow: Flow, ctx: TransportContext) -> None:
        manager = ctx.host_manager("ndp_rx", flow.dst, NdpReceiverHost)
        manager.add_flow(flow, self.rtt_packets(flow, ctx))
        sender = NdpSender(flow, ctx, self)
        receiver = _NdpReceiverEndpoint(manager)
        ctx.network.attach(flow.flow_id, flow.src, flow.dst, sender, receiver)
        sender.start()
