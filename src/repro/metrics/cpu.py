"""Datapath CPU-overhead proxy (Fig. 19).

The paper measures kernel-space CPU usage of PPT vs DCTCP on the
testbed and finds PPT adds under 1%, with the gap *shrinking* as load
grows (less spare bandwidth means fewer opportunistic packets).  In a
simulator there is no kernel, but the quantity that drives kernel CPU is
datapath operations — packets sent, packets received, timers fired — all
of which the hosts count.  We report operations per host normalised by
simulated time, i.e. an operation rate that plays the role of "CPU
usage"; comparing two schemes at the same load and workload reproduces
the paper's scaling claim exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..sim.network import Network

# Datapath operations one core sustains: typical for a kernel TCP path
# on the testbed's 2.4GHz cores.  Only *relative* comparisons matter for
# the Fig. 19 claim.
OPS_PER_CORE_SECOND = 5e6


@dataclass
class CpuStats:
    """Per-run datapath-operation accounting."""

    ops_by_host: Dict[int, int]
    duration: float

    @property
    def total_ops(self) -> int:
        return sum(self.ops_by_host.values())

    @property
    def ops_per_second(self) -> float:
        if self.duration <= 0:
            return float("nan")
        return self.total_ops / self.duration

    def usage_proxy(self) -> float:
        """Map the op rate to a CPU-share percentage of one core
        (:data:`OPS_PER_CORE_SECOND`)."""
        per_host = self.ops_per_second / max(1, len(self.ops_by_host))
        return per_host / OPS_PER_CORE_SECOND * 100.0


def collect_cpu(network: Network, duration: float) -> CpuStats:
    return CpuStats(
        ops_by_host={h.host_id: h.datapath_ops for h in network.hosts.values()},
        duration=duration,
    )
