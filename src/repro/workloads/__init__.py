"""Workloads: flow-size distributions, traffic patterns, and Poisson
arrivals as constant-memory flow streams (:func:`flow_stream`; a
stream's ``materialize()`` gives the list) — see ``docs/workloads.md``."""

from .distributions import (
    DATA_MINING,
    MEMCACHED_ETC,
    MEMCACHED_W1,
    WEB_SEARCH,
    WORKLOADS,
    YOUTUBE_HTTP,
    EmpiricalCdf,
    sample_sizes,
)
from .streams import (
    ClosedLoopStream,
    ConstantShape,
    DiurnalShape,
    FlowStream,
    LoadShape,
    MergedStream,
    OnOffShape,
    PoissonFlowStream,
    TenantClass,
    flow_stream,
    parse_load_shape,
    parse_tenant_mix,
    tenant_mix_stream,
)
from .patterns import all_to_all, incast

__all__ = [
    "EmpiricalCdf", "WEB_SEARCH", "DATA_MINING", "MEMCACHED_W1",
    "MEMCACHED_ETC", "YOUTUBE_HTTP", "WORKLOADS", "sample_sizes",
    "all_to_all", "incast",
    "FlowStream", "PoissonFlowStream",
    "ClosedLoopStream", "MergedStream", "TenantClass", "tenant_mix_stream",
    "flow_stream", "LoadShape", "ConstantShape", "DiurnalShape",
    "OnOffShape", "parse_load_shape", "parse_tenant_mix",
]
