"""Metrics: FCT statistics, the periodic probe, efficiency and CPU proxies."""

from .cpu import CpuStats, collect_cpu
from .efficiency import EfficiencyStats, collect_efficiency
from .fct import SMALL_FLOW_BYTES, FctStats, mean, percentile, reduction
from .probe import Probe

__all__ = [
    "FctStats", "percentile", "mean", "reduction", "SMALL_FLOW_BYTES",
    "Probe",
    "EfficiencyStats", "collect_efficiency", "CpuStats", "collect_cpu",
]
