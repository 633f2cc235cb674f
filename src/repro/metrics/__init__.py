"""Metrics: FCT statistics, the per-flow table, the periodic probe and CPU
proxies."""

from .. import _lazy_exports

__all__ = _lazy_exports(__name__, {
    ".fct": ("FctStats", "percentile", "mean", "reduction",
             "SMALL_FLOW_BYTES"),
    ".flowtable": ("FlowTable",),
    ".probe": ("Probe",),
    ".cpu": ("CpuStats", "collect_cpu"),
})
