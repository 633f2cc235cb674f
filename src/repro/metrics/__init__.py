"""Metrics: FCT statistics, the per-flow table, the periodic probe and CPU
proxies."""

from .cpu import CpuStats, collect_cpu
from .fct import SMALL_FLOW_BYTES, FctStats, mean, percentile, reduction
from .flowtable import FlowTable
from .probe import Probe

__all__ = [
    "FctStats", "percentile", "mean", "reduction", "SMALL_FLOW_BYTES",
    "FlowTable", "Probe", "CpuStats", "collect_cpu",
]
