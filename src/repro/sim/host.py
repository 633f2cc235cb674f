"""End host: NIC egress port plus per-flow transport endpoint dispatch.

Each host owns exactly one uplink :class:`~repro.sim.link.Port` (to its
ToR/leaf switch, or to the single switch in the star topology).  Transport
endpoints (senders and receivers) register themselves per flow id; packets
arriving at the host are dispatched to the endpoint registered for that
flow.

The host also carries simple datapath counters used by the Fig. 19 CPU
overhead experiment: every packet sent or received and every timer fire
counts as one datapath operation, which is the work a kernel would do.
"""

from __future__ import annotations

from typing import Dict, Optional

from .link import Port
from .packet import Packet


class Host:
    """A server attached to the fabric."""

    __slots__ = ("host_id", "name", "uplink", "endpoints", "ops_sent",
                 "ops_received", "default_endpoint",
                 "pkts_to_fabric", "bytes_to_fabric",
                 "pkts_from_fabric", "bytes_from_fabric")

    def __init__(self, host_id: int, name: str = "") -> None:
        self.host_id = host_id
        self.name = name or f"host{host_id}"
        self.uplink: Optional[Port] = None
        self.endpoints: Dict[int, object] = {}
        self.ops_sent = 0
        self.ops_received = 0
        # Conservation-ledger counters (repro.validate): packets/bytes
        # this host offered to its NIC port and packets/bytes that
        # arrived off the queued fabric.  Ideal-control-path deliveries
        # (:meth:`receive_control`) are deliberately excluded — they
        # never traverse a port, so they are not part of the fabric's
        # byte ledger.
        self.pkts_to_fabric = 0
        self.bytes_to_fabric = 0
        self.pkts_from_fabric = 0
        self.bytes_from_fabric = 0
        # Fallback receiver for packets of unregistered flows: a
        # validated run's auditor (which checks that none is data of a
        # retired receiver), or a test's sink for raw packets; None
        # otherwise, and the packet is discarded.
        self.default_endpoint = None

    def register(self, flow_id: int, endpoint) -> None:
        """Attach ``endpoint`` (must expose ``on_packet``) for ``flow_id``."""
        self.endpoints[flow_id] = endpoint

    def send(self, pkt: Packet) -> bool:
        """Push a packet into the NIC egress queue."""
        self.ops_sent += 1
        self.pkts_to_fabric += 1
        self.bytes_to_fabric += pkt.size
        port = self.uplink
        if port is None:
            raise RuntimeError(f"{self.name} has no uplink attached")
        return port.send(pkt)

    def receive(self, pkt: Packet) -> None:
        """Dispatch a packet arriving off the queued fabric."""
        self.pkts_from_fabric += 1
        self.bytes_from_fabric += pkt.size
        self.receive_control(pkt)

    def receive_control(self, pkt: Packet) -> None:
        """Dispatch a packet to its flow's endpoint: one datapath op.

        The ideal control path delivers here directly, outside the
        fabric ledger (control packets never crossed a port, so counting
        them as fabric arrivals would break byte conservation);
        :meth:`receive` ends here once a fabric arrival is booked.
        """
        self.ops_received += 1
        # no endpoint: the flow is already torn down and the late packet
        # is silently discarded, exactly like a closed socket
        endpoint = self.endpoints.get(pkt.flow_id)
        if endpoint is not None:
            endpoint.on_packet(pkt)
        elif self.default_endpoint is not None:
            self.default_endpoint.on_packet(pkt)

    @property
    def datapath_ops(self) -> int:
        """Total datapath operations (CPU-overhead proxy)."""
        return self.ops_sent + self.ops_received

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Host {self.name} flows={len(self.endpoints)}>"
