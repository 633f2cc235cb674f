"""Output-queued switch with strict-priority ports and ECMP forwarding.

A switch holds a forwarding table mapping destination host id to one or
more candidate output :class:`~repro.sim.link.Port` objects.  Multiple
candidates mean equal-cost paths; the switch picks one through its load
balancer (``lb``: flowlet, CONGA or NDP's spray, see
:mod:`~repro.sim.routing`), or by per-flow ECMP hash when it has none.
"""

from __future__ import annotations

from typing import Dict, List

from .link import Port
from .packet import DATA, HEADER, Packet
from .routing import ecmp_hash


class Switch:
    """A single switch.

    Attributes
    ----------
    switch_id:
        Unique id among switches (used to decorrelate ECMP hashes).
    table:
        ``dst_host_id -> [Port, ...]`` — candidate output ports.
    lb:
        The load balancer that picks among several candidates
        (:mod:`~repro.sim.routing`); None means stateless per-flow ECMP.
    """

    __slots__ = ("switch_id", "name", "table", "lb", "pkts_forwarded",
                 "bytes_forwarded")

    def __init__(self, switch_id: int, name: str = "") -> None:
        self.switch_id = switch_id
        self.name = name or f"switch{switch_id}"
        self.table: Dict[int, List[Port]] = {}
        # The ECMP hash is a few integer ops, cheaper than a dict
        # probe — no memo.
        self.lb = None
        self.pkts_forwarded = 0
        self.bytes_forwarded = 0

    def add_route(self, dst_host: int, port: Port) -> None:
        """Register ``port`` as a candidate next hop towards ``dst_host``."""
        self.table.setdefault(dst_host, []).append(port)

    def receive(self, pkt: Packet) -> None:
        """Forward an arriving packet towards its destination."""
        candidates = self.table.get(pkt.dst)
        if not candidates:
            raise KeyError(
                f"{self.name}: no route to host {pkt.dst} (flow {pkt.flow_id})"
            )
        if len(candidates) == 1:
            port = candidates[0]
        elif self.lb is not None:
            port = candidates[self.lb.choose(
                pkt.flow_id, candidates, candidates[0].sim.now,
                self.switch_id)]
        else:
            port = candidates[ecmp_hash(
                pkt.flow_id, self.switch_id, len(candidates))]
        self.pkts_forwarded += 1
        self.bytes_forwarded += pkt.size
        if pkt.int_records is not None and (pkt.kind == DATA
                                            or pkt.kind == HEADER):
            # HPCC INT: stamp queue length, cumulative tx bytes, time, rate.
            # Data-plane packets only — ACK/control kinds carry a snapshot
            # of the forward path and must not accumulate reverse-path hops.
            pkt.int_records.append(
                (port.mux.occupancy, port.bytes_sent, port.sim.now, port.rate_bps)
            )
        port.send(pkt)

    def ports(self) -> List[Port]:
        """All distinct output ports of this switch."""
        seen = []
        for candidates in self.table.values():
            for port in candidates:
                if port not in seen:
                    seen.append(port)
        return seen

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Switch {self.name} routes={len(self.table)}>"
