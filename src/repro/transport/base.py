"""Transport framework: flows, per-flow endpoints and scheme factories.

A *scheme* (DCTCP, PPT, Homa, ...) is a factory that, given a
:class:`Flow` and a :class:`TransportContext`, produces a sender endpoint
living at the flow's source host and a receiver endpoint at the
destination host.  Endpoints expose a single ``on_packet`` entry point;
everything else (timers, pacing) is scheduled against the simulator.

Two families, two cores: sender-driven window transports subclass
:class:`~.window.WindowSender`; receiver-driven message transports
(Homa, Aeolus, NDP, ExpressPass) are policies over the message core at
the bottom of this module — :class:`MessageState`,
:class:`MessageEndpoint`, :class:`ReceiverHost`, :class:`MessageSender`.

Flow completion is detected at the *receiver* (all unique payload packets
delivered) and reported through ``TransportContext.on_complete`` — the
quantity every FCT figure in the paper measures.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Set as _AbstractSet
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Deque, Dict, List, Optional, Set

from ..metrics.flowtable import SenderLedger
from ..sim.engine import Event, Simulator
from ..sim.network import Network
from ..sim.packet import ACK, DATA, HEADER_BYTES, Packet
from ..units import serialization_delay


@dataclass(slots=True)
class Flow:
    """One application message/flow.

    ``size`` is application payload bytes.  FCT = ``finish_time -
    start_time`` once the receiver has every payload byte.
    """

    flow_id: int
    src: int
    dst: int
    size: int
    start_time: float
    finish_time: Optional[float] = None
    # Filled by the sender model: bytes the application's *first* send()
    # syscall injected into the send buffer (buffer-aware identification).
    first_syscall_bytes: Optional[int] = None
    # Optional absolute completion deadline (used by deadline-aware
    # transports such as D2TCP); None = no deadline.
    deadline: Optional[float] = None

    @property
    def fct(self) -> Optional[float]:
        if self.finish_time is None:
            return None
        return self.finish_time - self.start_time

    @property
    def completed(self) -> bool:
        return self.finish_time is not None

    def n_packets(self, mss: int) -> int:
        payload = mss - HEADER_BYTES
        return max(1, math.ceil(self.size / payload))


@dataclass
class TransportConfig:
    """Knobs shared by every scheme.

    ``mss`` is the wire size of a full data packet (header included);
    payload per packet is ``mss - HEADER_BYTES``.
    """

    mss: int = 1500
    min_rto: float = 2e-3          # seconds; testbed uses 10ms (Table 3)
    # cap of the exponential RTO backoff (``window.RTO_BACKOFF``)
    max_rto: float = 0.25          # seconds
    max_cwnd_packets: int = 10_000
    # TCP send buffer capacity (buffer-aware identification, §4.1 / Fig 27).
    send_buffer_bytes: int = 2_000_000_000
    # Large-flow identification threshold (Table 3: 100KB in the testbed).
    identification_threshold: int = 100_000
    # PIAS-style demotion thresholds (bytes sent) for priorities 0->1->2->3.
    demotion_thresholds: tuple = (100_000, 1_000_000, 10_000_000)

    def payload_per_packet(self) -> int:
        return self.mss - HEADER_BYTES


class TransportContext:
    """Everything endpoints need: the engine, the fabric and bookkeeping."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        config: TransportConfig,
        on_complete: Optional[Callable[[Flow], None]] = None,
    ) -> None:
        self.sim = sim
        self.network = network
        self.config = config
        self._on_complete = on_complete
        self.completed: List[Flow] = []
        # Registry so PPT senders can consult per-host shared state
        # (e.g. the send-buffer model) if needed.
        self.extra: Dict[str, object] = {}
        # The run's Telemetry (repro.obs), or None for an unobserved
        # run; endpoints read this once at construction.
        self.telemetry = None
        # The run's invariant auditor (repro.validate), or None for an
        # unvalidated run; same read-once contract as ``telemetry``.
        self.auditor = None
        # counters of the senders retire() let go
        self.retired = SenderLedger()

    def host_manager(self, key: str, host_id: int, manager_cls, *args):
        """Per-host singleton of a receiver-driven scheme: the
        ``manager_cls(host_id, ctx, *args)`` kept under
        ``extra[key][host_id]``, built on first use."""
        managers = self.extra.setdefault(key, {})
        manager = managers.get(host_id)
        if manager is None:
            manager = managers[host_id] = manager_cls(host_id, self, *args)
        return manager

    def on_complete(self, flow: Flow) -> None:
        flow.finish_time = self.sim.now
        self.completed.append(flow)
        if self._on_complete is not None:
            self._on_complete(flow)

    def retire(self, sender) -> None:
        """Let go of a window sender whose every seq is delivered —
        called right after its ``stop()``, which cancelled its timers;
        from then on it ignores every packet.  Its counters go to
        :attr:`retired` (what the run's ``FlowTable`` reads in its
        place), the auditor checks its drain-end laws now, its host
        forgets it (a late ACK is discarded as for a closed socket) and
        its second loop forgets it, so reference counting frees both
        while the drain holds the GC off.  A sender its host does not
        hold under its flow id (one a test drives by hand) is left
        alone.  The receiver stays: late duplicates are still counted
        and ACKed."""
        flow_id = sender.flow.flow_id
        endpoints = sender.host.endpoints
        if endpoints.get(flow_id) is not sender:
            return
        del endpoints[flow_id]
        self.retired.record(flow_id, sender)
        if self.auditor is not None:
            self.auditor.audit_sender(sender)
        if sender.lcp is not None:
            sender.lcp.sender = None

    def base_rtt(self, flow: Flow) -> float:
        return self.network.base_rtt(flow.src, flow.dst)

    def bdp_packets(self, flow: Flow) -> int:
        """BDP of the flow's path bottleneck (edge link) in MSS packets."""
        rate = self.network.hosts[flow.src].uplink.rate_bps
        bdp_bytes = rate * self.base_rtt(flow) / 8.0
        return max(1, int(bdp_bytes // self.config.mss))


class Scheme:
    """Base class for transport scheme factories.

    A sender/receiver-pair scheme only names its endpoint classes; one
    whose sender takes more than ``(flow, ctx)`` overrides
    :meth:`make_sender`; one whose receiver is not built from
    ``(flow, ctx)`` alone (the per-host managers of the receiver-driven
    family) overrides :meth:`make_receiver`.
    """

    name: str = "base"
    sender_cls: Optional[type] = None
    receiver_cls: Optional[type] = None

    def make_sender(self, flow: Flow, ctx: TransportContext):
        """Construction hook of the default :meth:`start_flow`."""
        if self.sender_cls is None:
            raise NotImplementedError(
                f"{type(self).__name__} names no sender_cls and overrides "
                f"neither make_sender nor start_flow")
        return self.sender_cls(flow, ctx)

    def make_receiver(self, flow: Flow, ctx: TransportContext):
        """Construction hook of the default :meth:`start_flow`."""
        return self.receiver_cls(flow, ctx)

    def start_flow(self, flow: Flow, ctx: TransportContext) -> None:
        """Create endpoints, register them with the fabric, start sending."""
        sender = self.make_sender(flow, ctx)
        receiver = self.make_receiver(flow, ctx)
        ctx.network.attach(flow.flow_id, flow.src, flow.dst, sender, receiver)
        sender.start()

    def configure_network(self, network: Network) -> None:
        """Hook for schemes needing fabric features (spray, trim, ...)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Scheme {self.name}>"


class RttBytesScheme(Scheme):
    """Scheme half of the transports sized by ``rtt_bytes`` (Homa, Aeolus,
    NDP): the unsolicited first window, and senders built with the
    scheme as third argument."""

    rtt_bytes: Optional[int] = None   # None derives the path BDP per flow

    def rtt_packets(self, flow: Flow, ctx: TransportContext) -> int:
        if self.rtt_bytes is not None:
            return max(1, self.rtt_bytes // ctx.config.mss)
        return ctx.bdp_packets(flow)

    def make_sender(self, flow: Flow, ctx: TransportContext):
        return self.sender_cls(flow, ctx, self)


# ---------------------------------------------------------------------------
# The message core of the receiver-driven family (Homa, Aeolus, NDP,
# ExpressPass): what every such transport does, written once.  A transport
# subclasses ReceiverHost and MessageSender and keeps only its policy.
# ---------------------------------------------------------------------------


# What a finished flow's ``sacked`` set is swapped for: one shared object,
# where the drained set would keep its hash table (sets never shrink).
NO_SEQS: frozenset = frozenset()


class DeliveredSeqs(_AbstractSet):
    """Read-only, live view of the seqs an endpoint knows delivered:
    every seq below its ``cum`` plus its ``sacked`` set, the delivered
    seqs at or above ``cum``.

    Both cores keep that pair instead of one hash entry per packet, so
    per-flow state is O(reorder window), not O(flow).  The view is for
    the auditor, the stall watchdog and tests; hot paths read ``cum``
    and ``sacked`` directly.
    """

    __slots__ = ("_owner",)

    def __init__(self, owner) -> None:
        self._owner = owner

    def __contains__(self, seq) -> bool:
        owner = self._owner
        return 0 <= seq < owner.cum or seq in owner.sacked

    def __iter__(self):
        owner = self._owner
        return chain(range(owner.cum), owner.sacked)

    def __len__(self) -> int:
        owner = self._owner
        return owner.cum + len(owner.sacked)


#: ``delivered`` of every endpoint that keeps ``cum`` and ``sacked``
delivered_view = property(DeliveredSeqs, doc=DeliveredSeqs.__doc__)


class MessageState:
    """Receiver-side state of one inbound message."""

    __slots__ = ("flow", "n_packets", "cum", "sacked", "done",
                 "progress_mark", "send_control")

    def __init__(self, flow: Flow, n_packets: int) -> None:
        self.flow = flow
        self.n_packets = n_packets
        self.cum = 0              # every seq below this is delivered
        self.sacked: Set[int] = set()   # delivered seqs above ``cum``
        self.done = False
        self.progress_mark = 0    # delivered count at the last stall check
        # control sender to the flow's source, resolved on the first
        # control packet (see ReceiverHost.control_sender)
        self.send_control = None

    delivered = delivered_view

    def deliver(self, seq: int) -> None:
        """Record data packet ``seq``; a duplicate changes nothing."""
        cum = self.cum
        if seq == cum:
            cum += 1
            sacked = self.sacked
            while cum in sacked:
                sacked.remove(cum)
                cum += 1
            self.cum = cum
        elif seq > cum:
            self.sacked.add(seq)


class MessageEndpoint:
    """The per-flow receiver a receiver-driven scheme registers with the
    destination host: it hands packets to the per-host
    :class:`ReceiverHost` and exposes its message's ``delivered`` view,
    so the run-health watchdog counts in-message progress exactly as it
    does for window endpoints."""

    __slots__ = ("manager", "state")

    def __init__(self, manager: "ReceiverHost", state: MessageState) -> None:
        self.manager = manager
        self.state = state

    @property
    def delivered(self) -> DeliveredSeqs:
        return DeliveredSeqs(self.state)

    def on_packet(self, pkt: Packet) -> None:
        if pkt.kind == DATA:
            self.manager.on_data(pkt)
        else:
            self.manager.on_control(pkt)


class ReceiverHost:
    """Per-host receiver of a receiver-driven transport, shared by all
    inbound messages (``ctx.host_manager`` keeps the singleton).

    Owns the message table, delivery bookkeeping, completion with its
    final ACK, a control pacer clocked at the host's link rate and a
    per-message stall timer.  Policy hooks: :meth:`on_delivery`,
    :meth:`on_control`, :meth:`on_stall`, :meth:`next_entry` /
    :meth:`release` for the pacer, and :meth:`send_final`.
    """

    state_cls = MessageState
    # the pacer releases one control packet per MSS serialisation time
    # at this fraction of the host's link rate
    pacer_rate_fraction = 1.0

    def __init__(self, host_id: int, ctx: TransportContext) -> None:
        self.host_id = host_id
        self.ctx = ctx
        self.messages: Dict[int, MessageState] = {}
        self.control_queue: Deque = deque()   # entries awaiting a pacer slot
        self._pacer_armed = False
        self._next_free = 0.0
        rate = ctx.network.hosts[host_id].uplink.rate_bps
        self._pacer_interval = serialization_delay(
            ctx.config.mss, rate * self.pacer_rate_fraction)

    def add_message(self, flow: Flow) -> MessageState:
        state = self.state_cls(flow, flow.n_packets(self.ctx.config.mss))
        self.messages[flow.flow_id] = state
        return state

    # -- arrivals ---------------------------------------------------------

    def on_data(self, pkt: Packet) -> None:
        state = self.messages.get(pkt.flow_id)
        if state is None or state.done:
            return
        old_cum = state.cum
        state.deliver(pkt.seq)
        if state.cum >= state.n_packets:
            self.complete(state)
        else:
            self.on_delivery(state, state.cum > old_cum)

    def on_delivery(self, state: MessageState, cum_advanced: bool) -> None:
        """A data packet (new or duplicate) of an incomplete message."""

    def on_control(self, pkt: Packet) -> None:
        """A non-data packet addressed to this host's receiver."""

    def complete(self, state: MessageState) -> None:
        state.done = True
        state.sacked = NO_SEQS
        self.send_final(state)
        self.ctx.on_complete(state.flow)

    def send_final(self, state: MessageState) -> None:
        """Tell the sender the whole message arrived (it stops its timer)."""
        flow = state.flow
        ack = Packet(flow.flow_id, self.host_id, flow.src, state.n_packets,
                     HEADER_BYTES, kind=ACK, priority=0)
        ack.ack_seq = state.n_packets
        (state.send_control or self.control_sender(state))(ack)

    def control_sender(self, state: MessageState):
        """Resolve and cache :meth:`Network.control_sender` from this
        host to ``state``'s source — on the message's first control
        packet, not in :meth:`add_message` (the tests' capture seam is
        installed in between).  Every grant, pull, credit and final goes
        ``(state.send_control or self.control_sender(state))(pkt)``."""
        send = state.send_control = self.ctx.network.control_sender(
            self.host_id, state.flow.src)
        return send

    # -- control pacer ----------------------------------------------------

    def arm_pacer(self) -> None:
        if self._pacer_armed or not self.control_queue:
            return
        self._pacer_armed = True
        delay = max(0.0, self._next_free - self.ctx.sim.now)
        self.ctx.sim.schedule(delay, self._release)

    def _release(self) -> None:
        self._pacer_armed = False
        entry = self.next_entry()
        if entry is None:
            return
        self._next_free = self.ctx.sim.now + self._pacer_interval
        self.release(entry)
        self.arm_pacer()

    def next_entry(self):
        """Take the entry that owns this pacer slot off ``control_queue``;
        None when nothing is left to send (the slot stays free)."""
        return self.control_queue.popleft() if self.control_queue else None

    def release(self, entry) -> None:
        """Send the control packet ``entry`` stands for (or nothing: the
        slot is spent either way)."""
        raise NotImplementedError

    # -- per-message stall timer ------------------------------------------

    def arm_stall_timer(self, state: MessageState) -> None:
        self.ctx.sim.schedule(self.ctx.config.min_rto, self._stall_check,
                              state)

    def _stall_check(self, state: MessageState) -> None:
        if state.done:
            return
        delivered = state.cum + len(state.sacked)
        if delivered <= state.progress_mark:
            self.on_stall(state)
        state.progress_mark = delivered
        self.arm_stall_timer(state)

    def on_stall(self, state: MessageState) -> None:
        """No new packet of ``state`` arrived for a full ``min_rto``."""


class MessageSender:
    """Sender half of a receiver-driven transport: flow bookkeeping, the
    data-packet builder, and a fixed-``min_rto`` timer that calls
    :meth:`on_timeout`.  Subclasses add ``start`` and ``on_packet``."""

    def __init__(self, flow: Flow, ctx: TransportContext) -> None:
        self.flow = flow
        self.ctx = ctx
        self.sim = ctx.sim
        self.cfg = ctx.config
        self.host = ctx.network.hosts[flow.src]
        # per-sender constants, read once (send_data and arm_timer run
        # per packet)
        self.mss = self.cfg.mss
        self.payload = self.cfg.payload_per_packet()
        self.min_rto = self.cfg.min_rto
        self.n_packets = flow.n_packets(self.mss)
        self.next_seq = 0         # first seq never sent
        self.acked_cum = 0
        self.finished = False
        self.pkts_transmitted = 0
        self.pkts_retransmitted = 0
        self._rto_event: Optional[Event] = None
        self._rto_deadline = 0.0
        if flow.first_syscall_bytes is None:
            flow.first_syscall_bytes = min(flow.size, self.cfg.send_buffer_bytes)

    def send_data(self, seq: int, priority: int, retransmit: bool = False,
                  unscheduled: bool = False) -> None:
        flow = self.flow
        # wire size: a full MSS, or the last packet's payload (at least
        # one byte) plus the header
        remaining = flow.size - seq * self.payload
        size = (self.mss if remaining >= self.payload
                else max(1, remaining) + HEADER_BYTES)
        pkt = Packet(flow.flow_id, flow.src, flow.dst, seq, size, DATA,
                     priority, False)     # not ECN-capable
        pkt.unscheduled = unscheduled
        pkt.retransmit = retransmit
        pkt.sent_at = self.sim.now
        self.pkts_transmitted += 1
        if retransmit:
            self.pkts_retransmitted += 1
        self.host.send(pkt)

    def stop(self) -> None:
        self.finished = True
        if self._rto_event is not None:
            self._rto_event.cancel()
            self._rto_event = None

    def arm_timer(self) -> None:
        """(Re)start the timeout: ``min_rto`` from now, no backoff.

        Lazy deadline, as :meth:`WindowSender._arm_rto`: this runs on
        every grant or pull, so it only stores the new deadline; the one
        resident event re-checks it when it fires (:meth:`_on_timer`).
        """
        if self.finished:
            return
        self._rto_deadline = self.sim.now + self.min_rto
        if self._rto_event is None:
            self._rto_event = self.sim.schedule(self.min_rto,
                                                self._on_timer)

    def _on_timer(self) -> None:
        self._rto_event = None
        if self.finished:
            return
        now = self.sim.now
        if now < self._rto_deadline:
            # re-armed since this event was scheduled: sleep until the
            # current deadline.  It is at most twice ``now`` (one
            # ``min_rto`` ahead, and ``now`` is at least one), so the
            # difference is exact and the event lands on the deadline
            # to the bit.
            self._rto_event = self.sim.schedule(self._rto_deadline - now,
                                                self._on_timer)
            return
        self.host.ops_sent += 1
        self.on_timeout()
        self.arm_timer()

    def on_timeout(self) -> None:
        """Nothing from the receiver for ``min_rto``: resend something."""
