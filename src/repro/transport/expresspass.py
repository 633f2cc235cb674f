"""ExpressPass [Cho, Jang, Han — SIGCOMM 2017] — credit-scheduled,
delay-bounded proactive transport.

Table 1's "passive (1st RTT wasted)" proactive baseline.  The model
captures ExpressPass's essentials:

* **Credit request** — the sender announces the message; no data moves
  until credits arrive, so the first RTT carries no payload at all
  (the deployability/efficiency drawback the PPT paper highlights).
* **Credit pacing** — the receiver host paces small credit packets to
  its active senders at (a fraction of) its link rate, shared round-
  robin across inbound messages; each credit authorises exactly one
  data packet, so data arrives pre-scheduled and queues stay near-empty.
* **Credit waste feedback** — credits issued beyond what a sender can
  use are wasted bandwidth; the model stops crediting a message once it
  has been fully authorised.

Like NDP and Homa here, credits ride the ideal control path.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional

from ..sim.engine import Event
from ..sim.packet import ACK, CONTROL, DATA, HEADER_BYTES, Packet
from ..units import serialization_delay
from .base import Flow, Scheme, TransportContext

# Credits are paced at ~95% of the receiver link rate (the paper's
# aggressiveness-controlled target), expressed per full data packet.
CREDIT_RATE_FRACTION = 0.95


class ExpressPassReceiverHost:
    """Per-host credit pacer, round-robin over inbound messages."""

    def __init__(self, host_id: int, ctx: TransportContext) -> None:
        self.host_id = host_id
        self.ctx = ctx
        self.flows: Dict[int, dict] = {}
        self.credit_queue: Deque[int] = deque()  # flow ids awaiting credits
        self._pacer_armed = False
        self._next_free = 0.0
        rate = ctx.network.hosts[host_id].uplink.rate_bps
        self._interval = serialization_delay(
            ctx.config.mss, rate * CREDIT_RATE_FRACTION)

    def open_message(self, flow: Flow) -> None:
        n = flow.n_packets(self.ctx.config.mss)
        self.flows[flow.flow_id] = {
            "flow": flow,
            "n": n,
            "credited": 0,
            "delivered": set(),
            "cum": 0,
            "done": False,
            "progress_mark": 0,
            "recredit": deque(),
        }
        self.credit_queue.append(flow.flow_id)
        self._arm()
        self.ctx.sim.schedule(self.ctx.config.min_rto, self._rtx_check,
                              flow.flow_id)

    def _rtx_check(self, flow_id: int) -> None:
        """Fully-credited message with no delivery progress for an RTO:
        some credited packets were lost — re-credit the holes."""
        state = self.flows.get(flow_id)
        if state is None or state["done"]:
            return
        delivered = state["delivered"]
        if (state["credited"] >= state["n"]
                and len(delivered) <= state["progress_mark"]
                and not state["recredit"]):
            # target exactly the holes, not a sequential re-walk
            state["recredit"].extend(
                seq for seq in range(state["n"]) if seq not in delivered)
            if flow_id not in self.credit_queue:
                self.credit_queue.append(flow_id)
            self._arm()
        state["progress_mark"] = len(delivered)
        self.ctx.sim.schedule(self.ctx.config.min_rto, self._rtx_check,
                              flow_id)

    def on_data(self, pkt: Packet) -> None:
        state = self.flows.get(pkt.flow_id)
        if state is None or state["done"]:
            return
        delivered = state["delivered"]
        if pkt.seq not in delivered:
            delivered.add(pkt.seq)
            while state["cum"] in delivered:
                state["cum"] += 1
        if len(delivered) >= state["n"]:
            state["done"] = True
            self._final_ack(state)
            self.ctx.on_complete(state["flow"])
            return

    def _arm(self) -> None:
        if self._pacer_armed or not self.credit_queue:
            return
        self._pacer_armed = True
        delay = max(0.0, self._next_free - self.ctx.sim.now)
        self.ctx.sim.schedule(delay, self._issue_credit)

    def _issue_credit(self) -> None:
        self._pacer_armed = False
        while self.credit_queue:
            flow_id = self.credit_queue[0]
            state = self.flows.get(flow_id)
            if (state is None or state["done"]
                    or (state["credited"] >= state["n"]
                        and not state["recredit"])):
                self.credit_queue.popleft()
                continue
            break
        else:
            return
        state = self.flows[flow_id]
        self.credit_queue.rotate(-1)  # round-robin across messages
        self._next_free = self.ctx.sim.now + self._interval
        flow = state["flow"]
        if state["recredit"]:
            seq = state["recredit"].popleft()
            if seq in state["delivered"]:
                self._arm()
                return
        else:
            seq = state["credited"]
            state["credited"] += 1
        credit = Packet(flow_id, self.host_id, flow.src, seq,
                        HEADER_BYTES, kind=CONTROL, priority=0)
        credit.ack_seq = state["cum"]
        self.ctx.network.send_control(credit)
        self._arm()

    def _final_ack(self, state: dict) -> None:
        flow = state["flow"]
        ack = Packet(flow.flow_id, self.host_id, flow.src, state["n"],
                     HEADER_BYTES, kind=ACK, priority=0)
        ack.ack_seq = state["n"]
        self.ctx.network.send_control(ack)


class _ReceiverEndpoint:
    __slots__ = ("manager",)

    def __init__(self, manager: ExpressPassReceiverHost) -> None:
        self.manager = manager

    def on_packet(self, pkt: Packet) -> None:
        if pkt.kind == DATA:
            self.manager.on_data(pkt)


class ExpressPassSender:
    """Sends exactly one data packet per received credit."""

    def __init__(self, flow: Flow, ctx: TransportContext) -> None:
        self.flow = flow
        self.ctx = ctx
        self.sim = ctx.sim
        self.cfg = ctx.config
        self.host = ctx.network.hosts[flow.src]
        self.n_packets = flow.n_packets(self.cfg.mss)
        self.finished = False
        self.pkts_transmitted = 0
        self.pkts_retransmitted = 0
        if flow.first_syscall_bytes is None:
            flow.first_syscall_bytes = min(flow.size,
                                           self.cfg.send_buffer_bytes)

    def start(self) -> None:
        """Nothing to do: the receiver was notified out-of-band (the
        request rides the flow-open control exchange) and data waits for
        credits — the wasted first RTT."""

    def stop(self) -> None:
        self.finished = True

    def on_packet(self, pkt: Packet) -> None:
        if self.finished:
            return
        if pkt.kind == ACK and pkt.ack_seq >= self.n_packets:
            self.stop()
            return
        if pkt.kind != CONTROL:
            return
        seq = min(pkt.seq, self.n_packets - 1)
        payload = self.cfg.payload_per_packet()
        remaining = self.flow.size - seq * payload
        size = min(self.cfg.mss, max(1, remaining) + HEADER_BYTES)
        data = Packet(self.flow.flow_id, self.flow.src, self.flow.dst, seq,
                      size, kind=DATA, priority=0, ecn_capable=False)
        data.retransmit = seq < pkt.ack_seq
        data.sent_at = self.sim.now
        self.pkts_transmitted += 1
        if data.retransmit:
            self.pkts_retransmitted += 1
        self.host.send(data)


class ExpressPass(Scheme):
    name = "expresspass"

    def start_flow(self, flow: Flow, ctx: TransportContext) -> None:
        manager = ctx.host_manager("xpass_rx", flow.dst,
                                   ExpressPassReceiverHost)
        sender = ExpressPassSender(flow, ctx)
        receiver = _ReceiverEndpoint(manager)
        ctx.network.attach(flow.flow_id, flow.src, flow.dst, sender, receiver)
        sender.start()
        # the credit request reaches the receiver after one-way delay
        ctx.sim.schedule(ctx.network.base_delay(flow.src, flow.dst),
                         manager.open_message, flow)
