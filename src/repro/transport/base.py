"""Transport framework: flows, per-flow endpoints and scheme factories.

A *scheme* (DCTCP, PPT, Homa, ...) is a factory that, given a
:class:`Flow` and a :class:`TransportContext`, produces a sender endpoint
living at the flow's source host and a receiver endpoint at the
destination host.  Endpoints expose a single ``on_packet`` entry point;
everything else (timers, pacing) is scheduled against the simulator.

Flow completion is detected at the *receiver* (all unique payload packets
delivered) and reported through ``TransportContext.on_complete`` — the
quantity every FCT figure in the paper measures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..sim.engine import Simulator
from ..sim.network import Network
from ..sim.packet import HEADER_BYTES, Packet


@dataclass
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
    init_cwnd: int = 10            # packets; Linux default (TCP-10 [12])
    min_rto: float = 2e-3          # seconds; testbed uses 10ms (Table 3)
    # Exponential RTO backoff (consecutive timeouts without forward
    # progress double the timer, capped) — keeps senders alive through
    # link blackouts without a pathological retransmit storm.
    max_rto: float = 0.25          # seconds; the backoff cap
    rto_backoff: float = 2.0       # multiplier per consecutive timeout
    dctcp_g: float = 1.0 / 16.0    # alpha EWMA gain (DCTCP paper default)
    max_cwnd_packets: int = 10_000
    # TCP send buffer capacity (buffer-aware identification, §4.1 / Fig 27).
    send_buffer_bytes: int = 2_000_000_000
    # Large-flow identification threshold (Table 3: 100KB in the testbed).
    identification_threshold: int = 100_000
    # Delayed-ACK timer for PPT's 2:1 low-priority ACKs: an odd LP data
    # packet left un-acked (no pair arrived) is acknowledged after this
    # delay instead of waiting for the sender's RTO.
    lp_ack_delay: float = 5e-4
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
    :meth:`make_sender`; one that is not a plain pair (per-host
    receiver managers) overrides :meth:`start_flow` itself.
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

    def start_flow(self, flow: Flow, ctx: TransportContext) -> None:
        """Create endpoints, register them with the fabric, start sending."""
        sender = self.make_sender(flow, ctx)
        receiver = self.receiver_cls(flow, ctx)
        ctx.network.attach(flow.flow_id, flow.src, flow.dst, sender, receiver)
        sender.start()

    def configure_network(self, network: Network) -> None:
        """Hook for schemes needing fabric features (spray, trim, ...)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Scheme {self.name}>"
