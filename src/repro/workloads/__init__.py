"""Workloads: flow-size distributions, traffic patterns, and Poisson
arrivals as constant-memory flow streams (:func:`flow_stream`; a
stream's ``materialize()`` gives the list) — see ``docs/workloads.md``."""

from .. import _lazy_exports

__all__ = _lazy_exports(__name__, {
    ".distributions": ("EmpiricalCdf", "WEB_SEARCH", "DATA_MINING",
                       "MEMCACHED_W1", "MEMCACHED_ETC", "YOUTUBE_HTTP",
                       "WORKLOADS", "sample_sizes"),
    ".patterns": ("all_to_all", "incast"),
    ".streams": ("FlowStream", "PoissonFlowStream", "MergedStream",
                 "TenantClass", "tenant_mix_stream", "flow_stream",
                 "parse_tenant_mix"),
})
