"""NDP [Handley et al., SIGCOMM 2017] — trimming + pull-based transport.

Fabric behaviour (enabled by :meth:`Ndp.configure_network`):

* tiny switch queues (8 full packets per port),
* **packet trimming**: on overflow the payload is cut and the 64-byte
  header is queued at the highest priority, so the receiver learns about
  every would-be loss within one RTT,
* per-packet **spraying** across all equal-cost paths (a
  :class:`~repro.sim.routing.SprayBalancer` on every switch, in place of
  the scenario's ``lb``).

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
from itertools import islice
from typing import Deque, Optional

from ..sim.network import Network
from ..sim.packet import ACK, HEADER, HEADER_BYTES, PULL, Packet
from ..sim.routing import SprayBalancer
from .base import (
    Flow, MessageEndpoint, MessageSender, MessageState, ReceiverHost,
    RttBytesScheme, TransportContext,
)

NDP_QUEUE_PACKETS = 8


class _PullState(MessageState):
    """A message plus its pull accounting."""

    __slots__ = ("pull_budget", "pulls_issued")

    def __init__(self, flow: Flow, n_packets: int) -> None:
        super().__init__(flow, n_packets)
        self.pull_budget = 0
        self.pulls_issued = 0


class NdpReceiverHost(ReceiverHost):
    """Per-host pull pacer: ``control_queue`` holds ``(state, rtx_seq or
    None)`` entries, one PULL leaves per packet time of the downlink."""

    state_cls = _PullState

    def add_message(self, flow: Flow, first_window: int) -> _PullState:
        state = super().add_message(flow)
        # every packet beyond the unsolicited first window is clocked
        # out by exactly one pull
        state.pull_budget = max(0, state.n_packets - first_window)
        # receiver-driven retransmission timer (real NDP receivers keep
        # an RTX timer per incomplete message)
        self.arm_stall_timer(state)
        return state

    def on_stall(self, state: _PullState) -> None:
        # no unique-delivery progress in a full RTO: re-pull holes
        holes = (seq for seq in range(state.cum, state.n_packets)
                 if seq not in state.sacked)
        for seq in islice(holes, 64):
            self._enqueue_pull(state, seq)

    def on_delivery(self, state: _PullState, cum_advanced: bool) -> None:
        # one pull per received packet, until the pull budget (everything
        # beyond the unsolicited first window) is spent
        if state.pulls_issued < state.pull_budget:
            state.pulls_issued += 1
            self._enqueue_pull(state, None)

    def on_control(self, pkt: Packet) -> None:
        state = self.messages.get(pkt.flow_id)
        if pkt.kind == HEADER and state is not None and not state.done:
            # trimmed: request retransmission via a pull for that seq
            self._enqueue_pull(state, pkt.seq)

    def _enqueue_pull(self, state: _PullState, rtx_seq: Optional[int]) -> None:
        self.control_queue.append((state, rtx_seq))
        self.arm_pacer()

    def release(self, entry) -> None:
        state, rtx_seq = entry
        if state.done:
            return
        flow = state.flow
        pull = Packet(flow.flow_id, self.host_id, flow.src,
                      rtx_seq if rtx_seq is not None else -1,
                      HEADER_BYTES, kind=PULL, priority=0)
        pull.ack_seq = state.cum
        pull.meta = rtx_seq
        (state.send_control or self.control_sender(state))(pull)


class NdpSender(MessageSender):
    """Unsolicited first window, then one packet per PULL."""

    def __init__(self, flow: Flow, ctx: TransportContext, scheme: "Ndp") -> None:
        super().__init__(flow, ctx)
        self.scheme = scheme
        self.rtx_queue: Deque[int] = deque()

    def start(self) -> None:
        first_window = min(self.n_packets,
                           self.scheme.rtt_packets(self.flow, self.ctx))
        while self.next_seq < first_window:
            self.send_data(self.next_seq, 1)
            self.next_seq += 1
        self.arm_timer()

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
            self.send_data(self.rtx_queue.popleft(), 1, retransmit=True)
        elif self.next_seq < self.n_packets:
            self.send_data(self.next_seq, 1)
            self.next_seq += 1
        self.arm_timer()

    def on_timeout(self) -> None:
        # fallback probe: recovery is receiver-driven (pull RTX timer);
        # the sender only nudges the first unacknowledged packet
        if self.acked_cum < self.n_packets:
            self.send_data(self.acked_cum, 1, retransmit=True)


class Ndp(RttBytesScheme):
    """NDP scheme factory.  ``rtt_bytes`` as in :class:`~.homa.Homa`."""

    name = "ndp"
    sender_cls = NdpSender

    def __init__(self, rtt_bytes: Optional[int] = None):
        self.rtt_bytes = rtt_bytes

    def configure_network(self, network: Network) -> None:
        # spraying replaces whatever balancer the scenario installed
        network.set_load_balancer(SprayBalancer)
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

    def make_receiver(self, flow: Flow, ctx: TransportContext):
        manager = ctx.host_manager("ndp_rx", flow.dst, NdpReceiverHost)
        state = manager.add_message(flow, self.rtt_packets(flow, ctx))
        return MessageEndpoint(manager, state)
