"""Flow sources: picklable, constant-memory iterators of flows.

Every generated workload is a :class:`FlowStream`: a **picklable
iterator** yielding :class:`~repro.transport.base.Flow` objects in
non-decreasing start-time order, holding O(1) state regardless of how
many flows it will ever produce.  The runner pulls flows lazily (one
look-ahead flow at a time — see ``Simulator.schedule_chain``), so a
streamed run's resident memory stays flat; a scenario built with
``stream=False`` gets the same flows as a list
(:meth:`FlowStream.materialize`).

The protocol's three contracts:

* **ordered** — ``start_time`` never decreases between consecutive
  flows (the k-way merge and the lazy scheduler both rely on it);
* **picklable mid-iteration** — the stream's RNG and cursor state
  survive ``pickle``, which is what lets a checkpoint snapshot carry a
  half-consumed stream and lets ``run(resume=)`` stay bit-identical
  (and lets sweep workers construct streams from a spec after the
  fork instead of shipping a flow list);
* **seeded** — the same arguments draw the same flows, float for
  float (``tests/test_generator.py`` pins a digest of them).

:class:`PoissonFlowStream` is the paper's open-loop Poisson process
at a constant load (§6.1).  :func:`tenant_mix_stream` merges several
of them, one per tenant class (per-class size CDF and load share, as
in "Traffic Generation for Benchmarking Data Centre Networks",
PAPERS.md), by a k-way heap.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

from ..transport.base import Flow
from .distributions import WORKLOADS, EmpiricalCdf
from .patterns import PairSampler

__all__ = [
    "FlowStream", "PoissonFlowStream", "MergedStream", "TenantClass",
    "tenant_mix_stream", "flow_stream", "parse_tenant_mix",
]


# ---------------------------------------------------------------------------
# the stream protocol
# ---------------------------------------------------------------------------


class FlowStream:
    """A picklable iterator of :class:`Flow` in start-time order.

    ``n_flows`` is the total the stream will yield.  Streams are their
    own iterators — their cursor and RNG state ARE the object state, so
    pickling a half-consumed stream and resuming it elsewhere continues
    the exact sequence.
    """

    n_flows: int

    def __iter__(self) -> Iterator[Flow]:
        return self

    def __next__(self) -> Flow:
        raise NotImplementedError

    def materialize(self) -> List[Flow]:
        """Drain (the rest of) the stream into a list."""
        return list(self)


class PoissonFlowStream(FlowStream):
    """Open-loop Poisson arrivals at the target load: the §6.1 generator.

    The paper generates flows "following the Poisson process and
    controls the inter-arrival time of flows to achieve the desired
    network load" (§6.1).  Network load is defined against the
    aggregate edge capacity of the *sending* hosts: at load ``rho`` with
    ``S`` senders of edge rate ``C`` and mean flow size ``E[s]`` bytes,
    the flow arrival rate is::

        lambda = rho * S * C / (8 * E[s])      [flows per second]

    For incast patterns the receiver's downlink is the bottleneck, so
    the load is defined against that single link (``n_senders=1``).
    ``size_cap`` caps sampled sizes (the scaled-down scenarios use it);
    the rate is derived from the exact capped mean ``E[min(S, cap)]``
    (see :meth:`EmpiricalCdf.mean`), so the *offered load* stays
    correct under capping.  ``cdf`` may be any object with that
    ``mean(cap)`` and a ``sample(rng, cap)``.

    Flow ``i`` starts one exponential gap after flow ``i - 1`` (flow 0
    at time 0).  Each flow draws, from one seeded RNG and in this order,
    its gap, its (src, dst) pair and its size, so a seed fixes the whole
    sequence.
    """

    def __init__(
        self,
        pattern: PairSampler,
        cdf: EmpiricalCdf,
        *,
        load: float,
        link_rate: float,
        n_flows: int,
        seed: int = 1,
        n_senders: int = 1,
        size_cap: Optional[int] = None,
        first_flow_id: int = 0,
    ):
        if not 0.0 < load <= 1.5:
            raise ValueError(f"load out of range: {load}")
        if n_flows <= 0:
            raise ValueError("n_flows must be positive")
        if size_cap is not None and size_cap <= 0:
            raise ValueError(f"size_cap must be positive, got {size_cap}")
        self.pattern = pattern
        self.cdf = cdf
        self.size_cap = size_cap
        self.n_flows = n_flows
        self.first_flow_id = first_flow_id
        self._rng = random.Random(seed)
        # flows per second, as 1 / (1 / rate): the rounding the draws
        # pinned in tests/test_generator.py were made with
        rate = load * n_senders * link_rate / (8.0 * cdf.mean(size_cap))
        self._lambd = 1.0 / (1.0 / rate)
        self._now = 0.0
        self._emitted = 0

    def __next__(self) -> Flow:
        # the per-flow path of every generated workload: keep helper
        # calls off it (the self-pair refusal runs only on error)
        emitted = self._emitted
        if emitted == self.n_flows:
            raise StopIteration
        rng = self._rng
        if emitted:
            self._now += rng.expovariate(self._lambd)
        src, dst = self.pattern(rng)
        if src == dst:
            self._refuse_self_pair(src)
        flow = Flow(flow_id=self.first_flow_id + emitted, src=src, dst=dst,
                    size=self.cdf.sample(rng, self.size_cap),
                    start_time=self._now)
        self._emitted = emitted + 1
        return flow

    def _refuse_self_pair(self, src: int) -> None:
        # every shipped pattern guarantees src != dst, but a
        # user-supplied sampler may not — a src == dst flow would sit in
        # the runner forever (the receiver is its own sender)
        raise ValueError(
            f"pattern produced src == dst == {src} for flow "
            f"{self.first_flow_id + self._emitted}")


class MergedStream(FlowStream):
    """K-way heap merge of ordered streams into one ordered stream.

    Holds exactly one look-ahead flow per source; exact-time ties break
    by source index, so the merge is deterministic.  Raises if a source
    violates the ordered contract mid-stream.
    """

    def __init__(self, streams: Sequence[FlowStream]):
        self._streams = list(streams)
        if not self._streams:
            raise ValueError("MergedStream needs at least one source")
        self.n_flows = sum(stream.n_flows for stream in self._streams)
        self._heap: List[Tuple[float, int, Flow]] = []
        for idx, stream in enumerate(self._streams):
            flow = next(stream, None)
            if flow is not None:
                self._heap.append((flow.start_time, idx, flow))
        heapq.heapify(self._heap)

    def __next__(self) -> Flow:
        if not self._heap:
            raise StopIteration
        time, idx, flow = heapq.heappop(self._heap)
        successor = next(self._streams[idx], None)
        if successor is not None:
            if successor.start_time < time:
                raise ValueError(
                    f"merged source {idx} went backwards in time "
                    f"({successor.start_time} < {time})")
            heapq.heappush(self._heap,
                           (successor.start_time, idx, successor))
        return flow


# ---------------------------------------------------------------------------
# tenant mixes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TenantClass:
    """One tenant class of a mixed workload: a size distribution plus
    the share of the total offered load it contributes.  ``size_cap``
    overrides the mix-wide cap for this class when set."""

    name: str
    cdf: EmpiricalCdf
    share: float
    size_cap: Optional[int] = None

    def __post_init__(self) -> None:
        if not 0.0 < self.share < math.inf:
            raise ValueError(f"tenant {self.name!r}: share must be positive "
                             f"and finite, got {self.share!r}")


def _child_seed(seed: int, index: int) -> int:
    """Deterministic, well-separated per-substream seed (golden-ratio
    increment; plain arithmetic so it never depends on PYTHONHASHSEED)."""
    return (seed * 1_000_003 + 0x9E3779B1 * (index + 1)) % (2 ** 63)


def _split_counts(n_flows: int, shares: Sequence[float]) -> List[int]:
    """Apportion ``n_flows`` across shares (largest remainder, total
    preserved exactly)."""
    total_share = sum(shares)
    quotas = [n_flows * s / total_share for s in shares]
    counts = [int(q) for q in quotas]
    remainder = n_flows - sum(counts)
    order = sorted(range(len(shares)), key=lambda i: quotas[i] - counts[i],
                   reverse=True)
    for i in order[:remainder]:
        counts[i] += 1
    return counts


def tenant_mix_stream(
    classes: Sequence[TenantClass],
    pattern: PairSampler,
    *,
    load: float,
    link_rate: float,
    n_flows: int,
    seed: int = 1,
    n_senders: int = 1,
    size_cap: Optional[int] = None,
    first_flow_id: int = 0,
) -> MergedStream:
    """Mixed tenant classes merged into one ordered stream.

    Class ``c`` contributes ``load * share_c`` of the link load with its
    own size CDF (so its arrival rate follows from its own mean size),
    a private RNG stream (seeded from ``seed`` and the class index) and
    a contiguous, disjoint flow-id block.  ``n_flows`` is apportioned
    across classes by share (largest remainder).
    """
    classes = list(classes)
    if not classes:
        raise ValueError("tenant_mix_stream needs at least one class")
    total_share = sum(cls.share for cls in classes)
    counts = _split_counts(n_flows, [cls.share for cls in classes])
    streams: List[FlowStream] = []
    next_id = first_flow_id
    for idx, (cls, count) in enumerate(zip(classes, counts)):
        if count == 0:
            continue
        streams.append(PoissonFlowStream(
            pattern, cls.cdf,
            load=load * cls.share / total_share,
            link_rate=link_rate,
            n_flows=count,
            seed=_child_seed(seed, idx),
            n_senders=n_senders,
            size_cap=cls.size_cap if cls.size_cap is not None else size_cap,
            first_flow_id=next_id,
        ))
        next_id += count
    return MergedStream(streams)


def parse_tenant_mix(spec: Optional[str]) -> Optional[List[TenantClass]]:
    """Parse a CLI tenant-mix spec: ``name:share[,name:share...]`` with
    workload names from :data:`~repro.workloads.distributions.WORKLOADS`
    (e.g. ``web-search:0.7,memcached-w1:0.3``)."""
    if not spec:
        return None
    classes: List[TenantClass] = []
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        name, sep, share_text = item.partition(":")
        if not sep:
            raise ValueError(
                f"bad tenant-mix entry {item!r} (expected name:share)")
        if name not in WORKLOADS:
            raise ValueError(
                f"unknown workload {name!r} in tenant mix (choose from "
                f"{', '.join(sorted(WORKLOADS))})")
        try:
            share = float(share_text)
        except ValueError as exc:
            raise ValueError(
                f"bad share {share_text!r} for tenant {name!r}") from exc
        classes.append(TenantClass(name=name, cdf=WORKLOADS[name],
                                   share=share))
    if not classes:
        raise ValueError(f"empty tenant-mix spec {spec!r}")
    return classes


# ---------------------------------------------------------------------------
# one front door
# ---------------------------------------------------------------------------


def flow_stream(
    pattern: PairSampler,
    cdf: EmpiricalCdf,
    *,
    tenants: Optional[Sequence[TenantClass]] = None,
    **arrival,
) -> FlowStream:
    """A scenario's flows: :func:`tenant_mix_stream` over ``tenants``
    when given, else one :class:`PoissonFlowStream` of ``cdf``; the
    keywords are theirs."""
    if tenants:
        return tenant_mix_stream(tenants, pattern, **arrival)
    return PoissonFlowStream(pattern, cdf, **arrival)
