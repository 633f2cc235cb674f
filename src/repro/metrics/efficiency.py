"""Transfer efficiency (appendix F, Fig. 29).

``efficiency = received data bytes / sent data bytes`` — the higher, the
fewer losses.  The paper additionally reports the *low-priority* loop's
own efficiency, which exposes RC3's pathology: its overall efficiency
looks fine while its LP loop loses about half its packets and the primary
loop spends capacity re-filling the holes.

Aggregation is duck-typed over the endpoints left registered at the
hosts: anything exposing ``pkts_transmitted`` is a sender, anything
exposing ``data_pkts_received`` is a receiver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ..sim.network import Network


@dataclass
class EfficiencyStats:
    pkts_sent: int
    pkts_received: int
    lp_pkts_sent: int
    lp_pkts_received: int

    @property
    def overall(self) -> float:
        if self.pkts_sent == 0:
            return float("nan")
        return self.pkts_received / self.pkts_sent

    @property
    def low_priority(self) -> float:
        if self.lp_pkts_sent == 0:
            return float("nan")
        return self.lp_pkts_received / self.lp_pkts_sent


def collect_efficiency(network: Network) -> EfficiencyStats:
    """Aggregate sent/received counters over all registered endpoints."""
    sent = received = lp_sent = lp_received = 0
    seen = set()
    for host in network.hosts.values():
        for endpoint in host.endpoints.values():
            if id(endpoint) in seen:
                continue
            seen.add(id(endpoint))
            if hasattr(endpoint, "pkts_transmitted"):
                sent += endpoint.pkts_transmitted
                lcp = getattr(endpoint, "lcp", None)
                if lcp is not None:
                    lp_sent += lcp.lp_pkts_sent
            if hasattr(endpoint, "data_pkts_received"):
                received += endpoint.data_pkts_received
                if hasattr(endpoint, "lp_pkts_received"):
                    lp_received += endpoint.lp_pkts_received
    return EfficiencyStats(sent, received, lp_sent, lp_received)
