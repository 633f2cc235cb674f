"""repro.obs — unified, low-overhead run telemetry.

See :mod:`repro.obs.telemetry` for the design and
``docs/observability.md`` for the hook-site map and trace schema.
"""

from .. import _lazy_exports

__all__ = _lazy_exports(__name__, {
    ".telemetry": ("Telemetry", "TelemetrySummary", "TraceEvent",
                   "load_jsonl", "EVENT_KINDS", "DROP", "MARK", "TRIM",
                   "RETRANSMIT", "RTO", "FAULT_DOWN", "FAULT_UP",
                   "FLOW_START", "FLOW_COMPLETE"),
    ".hooks": ("chain",),
})
