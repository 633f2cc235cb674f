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

from typing import Dict, List, Optional, Set

from ..sim.engine import Event
from ..sim.packet import ACK, CONTROL, DATA, GRANT, HEADER_BYTES, Packet
from .base import Flow, Scheme, TransportContext


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


class _MsgState:
    """Receiver-side state for one inbound message."""

    __slots__ = ("flow", "n_packets", "delivered", "cum", "granted",
                 "done", "sender_host", "last_missing_request")

    def __init__(self, flow: Flow, n_packets: int) -> None:
        self.flow = flow
        self.n_packets = n_packets
        self.delivered: Set[int] = set()
        self.cum = 0
        self.granted = 0          # packets authorised so far
        self.done = False
        self.last_missing_request: Dict[int, float] = {}

    @property
    def remaining(self) -> int:
        return self.n_packets - len(self.delivered)


class HomaReceiverHost:
    """Per-host grant scheduler: SRPT with overcommitment."""

    def __init__(self, host_id: int, ctx: TransportContext, scheme: "Homa") -> None:
        self.host_id = host_id
        self.ctx = ctx
        self.scheme = scheme
        self.messages: Dict[int, _MsgState] = {}

    def add_message(self, flow: Flow) -> None:
        n = flow.n_packets(self.ctx.config.mss)
        state = _MsgState(flow, n)
        state.granted = min(n, self.scheme.rtt_packets(flow, self.ctx))
        self.messages[flow.flow_id] = state

    def on_data(self, pkt: Packet) -> None:
        state = self.messages.get(pkt.flow_id)
        if state is None or state.done:
            return
        old_cum = state.cum
        if pkt.seq not in state.delivered:
            state.delivered.add(pkt.seq)
            while state.cum in state.delivered:
                state.cum += 1
        if len(state.delivered) >= state.n_packets:
            state.done = True
            self._send_grant(state, final=True)
            self.ctx.on_complete(state.flow)
            del self.messages[pkt.flow_id]
            self._regrant()
            return
        self._regrant(trigger=pkt.flow_id)
        if state.cum > old_cum:
            # pure acknowledgement so the sender's timeout recovery makes
            # forward progress (loss *detection* remains timeout-based)
            self._send_grant(state)

    def _ranked(self) -> List[_MsgState]:
        """Active messages by SRPT order (fewest remaining bytes first)."""
        return sorted(self.messages.values(),
                      key=lambda m: (m.remaining, m.flow.flow_id))

    def _regrant(self, trigger: Optional[int] = None) -> None:
        ranked = self._ranked()
        overcommit = self.scheme.overcommit
        for rank, state in enumerate(ranked[:overcommit]):
            rtt_pkts = self.scheme.rtt_packets(state.flow, self.ctx)
            target = min(state.n_packets, len(state.delivered) + rtt_pkts)
            # Plain Homa is evaluated with timeout-based loss recovery
            # only (paper §6.2); Aeolus recovers holes via grants.
            missing = self._missing(state) if self.scheme.grant_resend else []
            if target > state.granted or missing:
                state.granted = max(state.granted, target)
                self._send_grant(state, rank=rank, missing=missing)

    def on_probe(self, pkt: Packet) -> None:
        """Aeolus first-RTT probe: the sender asks which unscheduled
        packets survived; holes are re-requested in the scheduled phase."""
        state = self.messages.get(pkt.flow_id)
        if state is None or state.done:
            return
        horizon = min(pkt.seq, state.n_packets)
        now = self.ctx.sim.now
        missing = []
        for seq in range(horizon):
            if seq in state.delivered:
                continue
            state.last_missing_request[seq] = now
            missing.append(seq)
            if len(missing) >= 64:
                break
        if missing:
            self._send_grant(state, missing=missing)

    def _missing(self, state: _MsgState, limit: int = 8) -> List[int]:
        """Holes below the highest delivered seq, rate-limited per seq."""
        if not state.delivered:
            return []
        high = max(state.delivered)
        now = self.ctx.sim.now
        cooldown = self.ctx.network.base_rtt(state.flow.src, state.flow.dst)
        missing = []
        for seq in range(state.cum, high):
            if seq in state.delivered:
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
                       HEADER_BYTES, kind=GRANT, priority=0)
        grant.ack_seq = state.cum
        scheduled_priority = min(7, 4 + rank)
        grant.meta = (state.granted, tuple(missing or ()), scheduled_priority,
                      final)
        self.ctx.network.send_control(grant)


class _ReceiverEndpoint:
    """Per-flow shim dispatching to the per-host manager.

    ``gro_delay`` models Homa-Linux's GRO batching (appendix C / the
    §6.1.1 remark): the kernel stack aggregates messages before handing
    them up, adding a fixed receive-side latency that hurts small
    messages most.  Zero for the idealised simulation scenarios; set on
    the testbed-shaped scenarios.
    """

    __slots__ = ("manager", "gro_delay")

    def __init__(self, manager: HomaReceiverHost,
                 gro_delay: float = 0.0) -> None:
        self.manager = manager
        self.gro_delay = gro_delay

    def on_packet(self, pkt: Packet) -> None:
        if pkt.kind == DATA:
            if self.gro_delay > 0.0:
                self.manager.ctx.sim.schedule(self.gro_delay,
                                              self.manager.on_data, pkt)
            else:
                self.manager.on_data(pkt)
        elif pkt.kind == CONTROL:
            self.manager.on_probe(pkt)


class HomaSender:
    """Message sender: unscheduled blast, then grant-clocked."""

    def __init__(self, flow: Flow, ctx: TransportContext, scheme: "Homa") -> None:
        self.flow = flow
        self.ctx = ctx
        self.scheme = scheme
        self.sim = ctx.sim
        self.host = ctx.network.hosts[flow.src]
        self.cfg = ctx.config
        self.n_packets = flow.n_packets(self.cfg.mss)
        self.granted = min(self.n_packets, scheme.rtt_packets(flow, ctx))
        self.next_seq = 0
        self.sent: Set[int] = set()
        self.acked_cum = 0
        self.scheduled_priority = 4
        self.finished = False
        self.pkts_transmitted = 0
        self.pkts_retransmitted = 0
        self._rto_event: Optional[Event] = None
        if flow.first_syscall_bytes is None:
            flow.first_syscall_bytes = min(flow.size, self.cfg.send_buffer_bytes)

    def start(self) -> None:
        # unscheduled blast at line rate (NIC serialises back-to-back)
        priority = unscheduled_priority(self.flow.size)
        while self.next_seq < self.granted:
            self._transmit(self.next_seq, priority, unscheduled=True)
            self.next_seq += 1
        self._arm_rto()

    def stop(self) -> None:
        self.finished = True
        if self._rto_event is not None:
            self._rto_event.cancel()
            self._rto_event = None

    def _transmit(self, seq: int, priority: int, unscheduled: bool = False,
                  retransmit: bool = False) -> None:
        payload = self.cfg.payload_per_packet()
        remaining = self.flow.size - seq * payload
        size = min(self.cfg.mss, max(1, remaining) + HEADER_BYTES)
        pkt = Packet(self.flow.flow_id, self.flow.src, self.flow.dst, seq,
                     size, kind=DATA, priority=priority,
                     ecn_capable=False)
        pkt.unscheduled = unscheduled
        pkt.retransmit = retransmit
        pkt.sent_at = self.sim.now
        self.sent.add(seq)
        self.pkts_transmitted += 1
        if retransmit:
            self.pkts_retransmitted += 1
        self.host.send(pkt)

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
            self._transmit(seq, priority, retransmit=True)
        if granted > self.granted:
            self.granted = min(granted, self.n_packets)
        while self.next_seq < self.granted:
            self._transmit(self.next_seq, priority)
            self.next_seq += 1
        self._arm_rto()

    # timeout-based loss recovery (see module docstring)
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
        # resend a window of un-acked sent packets
        window = self.scheme.rtt_packets(self.flow, self.ctx)
        resent = 0
        for seq in range(self.acked_cum, self.next_seq):
            if resent >= window:
                break
            self._transmit(seq, self.scheduled_priority, retransmit=True)
            resent += 1
        self._rto_event = None
        self._arm_rto()


class Homa(Scheme):
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

    def rtt_packets(self, flow: Flow, ctx: TransportContext) -> int:
        if self.rtt_bytes is not None:
            return max(1, self.rtt_bytes // ctx.config.mss)
        return ctx.bdp_packets(flow)

    def start_flow(self, flow: Flow, ctx: TransportContext) -> None:
        manager = ctx.host_manager(f"{self.name}_rx", flow.dst,
                                   HomaReceiverHost, self)
        manager.add_message(flow)
        sender = self.sender_cls(flow, ctx, self)
        receiver = _ReceiverEndpoint(manager, self.gro_delay)
        ctx.network.attach(flow.flow_id, flow.src, flow.dst, sender, receiver)
        sender.start()
