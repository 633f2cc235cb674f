"""Homa [Montazeri et al., SIGCOMM 2018] — receiver-driven transport.

The model follows the paper's simulation setup for PPT's evaluation (§6.2):

* **Unscheduled phase** — a new message blindly blasts its first
  ``RTTbytes`` at line rate, at a priority chosen from the message's size
  (smaller messages get higher unscheduled priorities, emulating Homa's
  priority allocation from the workload's size distribution).  This is
  exactly the pre-credit aggressiveness the PPT paper critiques.
* **Scheduled phase** — the *receiver host* (one manager shared by all
  inbound messages) grants the messages with the fewest remaining bytes,
  up to the configured degree of overcommitment, keeping at most one
  ``RTTbytes`` of granted-but-undelivered data per message.  Grants carry
  the scheduled priority (P4 + rank).
* **Loss recovery** — timeout-based only, matching the note in §6.2 that
  Homa's evaluation uses the Aeolus simulator's timeout recovery.

Homa assumes flow (message) sizes are known a priori — the manager sorts
by true remaining bytes — which is precisely the deployability concern
PPT removes.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..sim.packet import DATA, GRANT, HEADER_BYTES, Packet
from .base import (
    Flow, MessageEndpoint, MessageSender, MessageState, ReceiverHost,
    RttBytesScheme, TransportContext,
)


def unscheduled_priority(size: int) -> int:
    """Unscheduled priority from message size (smaller -> higher).

    Thresholds approximate Homa's workload-driven priority cutoffs for
    heavy-tailed DCN workloads.
    """
    if size <= 10_000:
        return 0
    if size <= 100_000:
        return 1
    if size <= 1_000_000:
        return 2
    return 3


class _MsgState(MessageState):
    """A message plus its grant bookkeeping."""

    __slots__ = ("granted", "rtt_packets", "last_missing_request")

    def __init__(self, flow: Flow, n_packets: int) -> None:
        super().__init__(flow, n_packets)
        self.granted = 0          # packets authorised so far
        self.rtt_packets = 0      # the scheme's grant window for this flow
        self.last_missing_request: Dict[int, float] = {}


def _srpt_key(state: _MsgState):
    """Fewest remaining packets first, flow id breaking ties."""
    return (state.n_packets - state.cum - len(state.sacked),
            state.flow.flow_id)


class HomaReceiverHost(ReceiverHost):
    """Per-host grant scheduler: SRPT with overcommitment.

    No receiver stall timer: loss recovery is the sender's timeout
    (paper §6.2), plus grant re-requests under Aeolus.
    """

    state_cls = _MsgState

    def __init__(self, host_id: int, ctx: TransportContext, scheme: "Homa") -> None:
        super().__init__(host_id, ctx)
        self.scheme = scheme

    def add_message(self, flow: Flow) -> _MsgState:
        state = super().add_message(flow)
        state.rtt_packets = self.scheme.rtt_packets(flow, self.ctx)
        state.granted = min(state.n_packets, state.rtt_packets)
        return state

    def on_delivery(self, state: _MsgState, cum_advanced: bool) -> None:
        self._regrant()
        if cum_advanced:
            # pure acknowledgement so the sender's timeout recovery makes
            # forward progress (loss *detection* remains timeout-based)
            self._send_grant(state)

    def complete(self, state: _MsgState) -> None:
        super().complete(state)
        del self.messages[state.flow.flow_id]
        self._regrant()

    def send_final(self, state: _MsgState) -> None:
        self._send_grant(state, final=True)

    def _ranked(self) -> List[_MsgState]:
        """Active messages by SRPT order (fewest remaining bytes first)."""
        messages = self.messages
        if len(messages) < 2:     # nothing to sort
            return list(messages.values())
        return sorted(messages.values(), key=_srpt_key)

    def _regrant(self) -> None:
        scheme = self.scheme
        for rank, state in enumerate(self._ranked()[:scheme.overcommit]):
            target = state.cum + len(state.sacked) + state.rtt_packets
            if target > state.n_packets:
                target = state.n_packets
            # Plain Homa is evaluated with timeout-based loss recovery
            # only (paper §6.2); Aeolus recovers holes via grants.
            missing = self._missing(state) if scheme.grant_resend else None
            if target > state.granted:
                state.granted = target
            elif not missing:
                continue
            self._send_grant(state, rank, missing)

    def on_control(self, pkt: Packet) -> None:
        """Aeolus first-RTT probe (the only control packet a Homa
        receiver is sent): the sender asks which unscheduled
        packets survived; holes are re-requested in the scheduled phase."""
        state = self.messages.get(pkt.flow_id)
        if state is None or state.done:
            return
        horizon = min(pkt.seq, state.n_packets)
        now = self.ctx.sim.now
        sacked = state.sacked
        missing = []
        for seq in range(state.cum, horizon):
            if seq in sacked:
                continue
            state.last_missing_request[seq] = now
            missing.append(seq)
            if len(missing) >= 64:
                break
        if missing:
            self._send_grant(state, missing=missing)

    def _missing(self, state: _MsgState, limit: int = 8) -> List[int]:
        """Holes below the highest delivered seq, rate-limited per seq."""
        sacked = state.sacked
        if not sacked:            # no hole: everything delivered is below cum
            return []
        high = max(sacked)
        now = self.ctx.sim.now
        cooldown = self.ctx.network.base_rtt(state.flow.src, state.flow.dst)
        missing = []
        for seq in range(state.cum, high):
            if seq in sacked:
                continue
            last = state.last_missing_request.get(seq, -1.0)
            if now - last < cooldown:
                continue
            state.last_missing_request[seq] = now
            missing.append(seq)
            if len(missing) >= limit:
                break
        return missing

    def _send_grant(self, state: _MsgState, rank: int = 0,
                    missing: Optional[List[int]] = None,
                    final: bool = False) -> None:
        flow = state.flow
        grant = Packet(flow.flow_id, self.host_id, flow.src, state.cum,
                       HEADER_BYTES, GRANT)
        grant.ack_seq = state.cum
        # the scheduled priority is P4 + rank, P7 at the lowest
        grant.meta = (state.granted, tuple(missing) if missing else (),
                      4 + rank if rank < 3 else 7, final)
        (state.send_control or self.control_sender(state))(grant)


class _GroEndpoint(MessageEndpoint):
    """Receiver endpoint behind Homa-Linux's GRO batching (appendix C /
    the §6.1.1 remark): the kernel stack aggregates messages before
    handing them up, adding a fixed receive-side latency that hurts
    small messages most.  Only the testbed-shaped scenarios set
    ``gro_delay``; the idealised ones use the plain endpoint.
    """

    __slots__ = ()

    def on_packet(self, pkt: Packet) -> None:
        manager = self.manager
        if pkt.kind == DATA:
            manager.ctx.sim.schedule(manager.scheme.gro_delay,
                                     manager.on_data, pkt)
        else:
            manager.on_control(pkt)


class HomaSender(MessageSender):
    """Message sender: unscheduled blast, then grant-clocked."""

    def __init__(self, flow: Flow, ctx: TransportContext, scheme: "Homa") -> None:
        super().__init__(flow, ctx)
        self.scheme = scheme
        self.granted = min(self.n_packets, scheme.rtt_packets(flow, ctx))
        self.scheduled_priority = 4

    def start(self) -> None:
        # unscheduled blast at line rate (NIC serialises back-to-back)
        priority = unscheduled_priority(self.flow.size)
        while self.next_seq < self.granted:
            self.send_data(self.next_seq, priority, unscheduled=True)
            self.next_seq += 1
        self.arm_timer()

    def on_packet(self, pkt: Packet) -> None:
        if pkt.kind != GRANT or self.finished:
            return
        granted, missing, priority, final = pkt.meta
        self.scheduled_priority = priority
        if pkt.ack_seq > self.acked_cum:
            self.acked_cum = pkt.ack_seq
        if final:
            self.stop()
            return
        for seq in missing:
            self.send_data(seq, priority, retransmit=True)
        if granted > self.granted:
            self.granted = min(granted, self.n_packets)
        while self.next_seq < self.granted:
            self.send_data(self.next_seq, priority)
            self.next_seq += 1
        self.arm_timer()

    def on_timeout(self) -> None:
        # timeout-based loss recovery (see module docstring): resend a
        # window of un-acked sent packets
        window = self.scheme.rtt_packets(self.flow, self.ctx)
        for seq in range(self.acked_cum,
                         min(self.next_seq, self.acked_cum + window)):
            self.send_data(seq, self.scheduled_priority, retransmit=True)


class Homa(RttBytesScheme):
    """Homa scheme factory.

    Parameters
    ----------
    rtt_bytes:
        Unscheduled window / grant window size in bytes.  None derives
        the path BDP at flow start (the paper sets 45KB for the 40/100G
        fabric and 50KB on the testbed).
    overcommit:
        Degree of overcommitment (number of concurrently granted
        messages); the paper uses 2.
    """

    name = "homa"
    sender_cls = HomaSender

    # Aeolus overrides this: holes are re-requested through grants.
    # Plain Homa relies on the sender timeout alone (see _regrant).
    grant_resend = False

    def __init__(self, rtt_bytes: Optional[int] = None, overcommit: int = 2,
                 gro_delay: float = 0.0):
        self.rtt_bytes = rtt_bytes
        self.overcommit = overcommit
        self.gro_delay = gro_delay

    def configure_network(self, network) -> None:
        # A Homa deployment's P4-P7 queues carry *scheduled* (primary)
        # traffic, not scavenger traffic: give every queue the same
        # dynamic-threshold share instead of the lossy low-priority
        # profile used for PPT/RC3-style opportunistic queues.
        for port in network.ports:
            if port.mux.dt_alphas is not None:
                alpha = max(port.mux.dt_alphas)
                port.mux.dt_alphas = [alpha] * len(port.mux.dt_alphas)

    def make_receiver(self, flow: Flow, ctx: TransportContext):
        manager = ctx.host_manager(f"{self.name}_rx", flow.dst,
                                   HomaReceiverHost, self)
        state = manager.add_message(flow)
        endpoint_cls = _GroEndpoint if self.gro_delay > 0.0 else MessageEndpoint
        return endpoint_cls(manager, state)
