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
from typing import Deque, Optional

from ..sim.packet import ACK, CONTROL, HEADER_BYTES, Packet
from .base import (
    Flow, MessageEndpoint, MessageSender, MessageState, ReceiverHost, Scheme,
    TransportContext,
)

# Credits are paced at ~95% of the receiver link rate (the paper's
# aggressiveness-controlled target), expressed per full data packet.
CREDIT_RATE_FRACTION = 0.95


class _CreditState(MessageState):
    """A message plus its credit accounting."""

    __slots__ = ("credited", "recredit")

    def __init__(self, flow: Flow, n_packets: int) -> None:
        super().__init__(flow, n_packets)
        self.credited = 0                       # first-pass credits issued
        self.recredit: Deque[int] = deque()     # holes awaiting a new credit

    def wants_credit(self) -> bool:
        return not self.done and (self.credited < self.n_packets
                                  or bool(self.recredit))


class ExpressPassReceiverHost(ReceiverHost):
    """Per-host credit pacer: ``control_queue`` holds the messages
    awaiting credits, served round-robin."""

    state_cls = _CreditState
    pacer_rate_fraction = CREDIT_RATE_FRACTION

    def open_message(self, state: _CreditState) -> None:
        """The sender's credit request arrived: start crediting."""
        self.control_queue.append(state)
        self.arm_pacer()
        self.arm_stall_timer(state)

    def on_stall(self, state: _CreditState) -> None:
        """Fully-credited message with no delivery progress for an RTO:
        some credited packets were lost — re-credit the holes."""
        if state.credited >= state.n_packets and not state.recredit:
            # target exactly the holes, not a sequential re-walk
            state.recredit.extend(seq for seq in range(state.cum,
                                                       state.n_packets)
                                  if seq not in state.sacked)
            if state not in self.control_queue:
                self.control_queue.append(state)
            self.arm_pacer()

    def next_entry(self) -> Optional[_CreditState]:
        queue = self.control_queue
        while queue and not queue[0].wants_credit():
            queue.popleft()
        if not queue:
            return None
        queue.rotate(-1)  # round-robin across messages
        return queue[-1]

    def release(self, state: _CreditState) -> None:
        if state.recredit:
            seq = state.recredit.popleft()
            if seq < state.cum or seq in state.sacked:
                return
        else:
            seq = state.credited
            state.credited += 1
        flow = state.flow
        credit = Packet(flow.flow_id, self.host_id, flow.src, seq,
                        HEADER_BYTES, kind=CONTROL, priority=0)
        credit.ack_seq = state.cum
        (state.send_control or self.control_sender(state))(credit)


class ExpressPassSender(MessageSender):
    """Sends exactly one data packet per received credit."""

    def start(self) -> None:
        """Nothing to do: the receiver was notified out-of-band (the
        request rides the flow-open control exchange) and data waits for
        credits — the wasted first RTT."""

    def on_packet(self, pkt: Packet) -> None:
        if self.finished:
            return
        if pkt.kind == ACK and pkt.ack_seq >= self.n_packets:
            self.stop()
            return
        if pkt.kind != CONTROL:
            return
        seq = min(pkt.seq, self.n_packets - 1)
        # first-pass credits arrive in seq order (FIFO control pipe), so
        # a credit below the next unsent seq re-requests a lost packet
        retransmit = seq < self.next_seq
        if not retransmit:
            self.next_seq = seq + 1
        self.send_data(seq, 0, retransmit=retransmit)


class ExpressPass(Scheme):
    name = "expresspass"
    sender_cls = ExpressPassSender

    def make_receiver(self, flow: Flow, ctx: TransportContext):
        manager = ctx.host_manager("xpass_rx", flow.dst,
                                   ExpressPassReceiverHost)
        state = manager.add_message(flow)
        # the credit request reaches the receiver after one-way delay
        ctx.sim.schedule(ctx.network.base_delay(flow.src, flow.dst),
                         manager.open_message, state)
        return MessageEndpoint(manager, state)
