"""The per-flow record of a finished run: one row per pulled flow.

:meth:`FlowTable.harvest` reads the flows and every endpoint registered
at the hosts once (an endpoint registered twice counts once), so the
run's per-flow totals are column sums: ``RunHealth``'s and the
telemetry rollup's retransmits and RTOs, and Fig. 29's transfer
efficiency (appendix F: received over sent data packets, overall and
for the low-priority loop, where RC3 loses about half its packets).
Endpoints are duck-typed: a sender exposes ``pkts_transmitted`` (and
``pkts_retransmitted``, optionally ``rtos_fired`` and a second loop
``lcp``), a receiver ``data_pkts_received`` (optionally
``lp_pkts_received``).

Columns are stdlib ``array``\\ s — compact, picklable across a
``run_grid`` pipe, and untracked by the GC, which the harvest runs
right after re-enabling.  An unfinished flow's FCT is
:data:`UNFINISHED`, not NaN, so two bit-identical runs' tables compare
equal.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Iterable

from ..transport.base import Flow

UNFINISHED = float("inf")


@dataclass
class FlowTable:
    flow_id: array
    size: array
    fct: array
    retransmits: array
    rtos: array
    pkts_sent: array
    lp_pkts_sent: array
    pkts_received: array
    lp_pkts_received: array

    def __len__(self) -> int:
        return len(self.flow_id)

    @classmethod
    def harvest(cls, flows: Iterable[Flow], network) -> "FlowTable":
        flow_ids, sizes, fcts = array("q"), array("q"), array("d")
        row = {}
        for flow in flows:
            row[flow.flow_id] = len(flow_ids)
            flow_ids.append(flow.flow_id)
            sizes.append(flow.size)
            fct = flow.fct
            fcts.append(UNFINISHED if fct is None else fct)
        zeros = bytes(flow_ids.itemsize * len(flow_ids))
        # the six counter columns start at zero
        table = cls(flow_ids, sizes, fcts,
                    *(array("q", zeros) for _ in range(6)))
        seen = set()
        for host in network.hosts.values():
            for flow_id, endpoint in host.endpoints.items():
                if id(endpoint) in seen:
                    continue
                seen.add(id(endpoint))
                i = row.get(flow_id)
                if i is None:
                    continue
                sent = getattr(endpoint, "pkts_transmitted", None)
                if sent is not None:
                    table.pkts_sent[i] += sent
                    table.retransmits[i] += endpoint.pkts_retransmitted
                    table.rtos[i] += getattr(endpoint, "rtos_fired", 0)
                    lcp = getattr(endpoint, "lcp", None)
                    if lcp is not None:
                        table.lp_pkts_sent[i] += lcp.lp_pkts_sent
                received = getattr(endpoint, "data_pkts_received", None)
                if received is not None:
                    table.pkts_received[i] += received
                    table.lp_pkts_received[i] += getattr(
                        endpoint, "lp_pkts_received", 0)
        return table

    def efficiency(self, lp: bool = False) -> float:
        """Received over sent data packets (NaN when none were sent);
        ``lp`` counts the low-priority loop's alone."""
        sent = sum(self.lp_pkts_sent if lp else self.pkts_sent)
        if sent == 0:
            return float("nan")
        return sum(self.lp_pkts_received if lp else self.pkts_received) / sent
