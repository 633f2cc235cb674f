"""FCT-distribution equivalence gate: hybrid runs vs the packet oracle.

The hybrid fast path (:mod:`repro.sim.hybrid`) is only trustworthy if
the FCT *distribution* it produces matches the pure packet model's on
the same scenario.  This module quantifies that match three ways and
gates on all of them:

* per-bucket (small / large / overall) **mean** relative difference,
* per-bucket **p99** relative difference,
* the **Kolmogorov-Smirnov distance** between the two overall FCT
  empirical CDFs (catches shape drift that bucket summaries miss).

The oracle side is always the denominator of a relative difference, so
tolerances read as "hybrid may be off by X of the packet-model truth".
Tolerances are the caller's: the test suite gates at the values
calibrated in ``tests/test_hybrid.py``; ``docs/hybrid.md`` explains why
they are looser than bit-identity (the abstraction deliberately skips
slow-start and per-packet queueing noise).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..metrics.fct import SMALL_FLOW_BYTES, mean, percentile
from ..transport.base import Flow


def ks_distance(a: Sequence[float], b: Sequence[float]) -> float:
    """Two-sample Kolmogorov-Smirnov statistic: the max vertical gap
    between the empirical CDFs.  0 = identical samples, 1 = disjoint
    supports.  Either side empty -> 1.0 (nothing to compare is the
    opposite of equivalent)."""
    if not a or not b:
        return 1.0
    xs = sorted(a)
    ys = sorted(b)
    i = j = 0
    gap = 0.0
    n, m = len(xs), len(ys)
    while i < n and j < m:
        # advance past every sample at the current jump point on BOTH
        # sides before comparing, so tied values (identical samples)
        # contribute zero gap
        v = xs[i] if xs[i] <= ys[j] else ys[j]
        while i < n and xs[i] <= v:
            i += 1
        while j < m and ys[j] <= v:
            j += 1
        diff = abs(i / n - j / m)
        if diff > gap:
            gap = diff
    return gap


def _rel_diff(oracle: float, candidate: float) -> float:
    if oracle == 0.0:
        return 0.0 if candidate == 0.0 else float("inf")
    return abs(candidate - oracle) / oracle


@dataclass
class BucketComparison:
    """One FCT bucket's oracle-vs-hybrid summary."""

    name: str
    n_oracle: int
    n_hybrid: int
    mean_rel: float     # |mean_h - mean_o| / mean_o
    p99_rel: float      # |p99_h - p99_o| / p99_o
    problems: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


@dataclass
class EquivalenceReport:
    """The gate's verdict plus everything needed to read a failure."""

    buckets: List[BucketComparison]
    ks: float
    ks_bound: float
    mean_tol: float
    p99_tol: float

    @property
    def ok(self) -> bool:
        return self.ks <= self.ks_bound and all(b.ok for b in self.buckets)

    def describe(self) -> str:
        parts = [f"ks={self.ks:.3f}<={self.ks_bound:g}"
                 if self.ks <= self.ks_bound
                 else f"KS {self.ks:.3f} EXCEEDS {self.ks_bound:g}"]
        for bucket in self.buckets:
            if bucket.ok:
                parts.append(f"{bucket.name}: mean±{bucket.mean_rel:.1%} "
                             f"p99±{bucket.p99_rel:.1%}")
            else:
                parts.append(f"{bucket.name}: " + "; ".join(bucket.problems))
        return ("equivalent " if self.ok else "NOT equivalent ") \
            + " | ".join(parts)


def _fcts(flows):
    overall: List[float] = []
    small: List[float] = []
    large: List[float] = []
    for flow in flows:
        fct = flow.fct
        if fct is None:
            continue
        overall.append(fct)
        (small if flow.size <= SMALL_FLOW_BYTES else large).append(fct)
    return overall, small, large


def compare_fct_distributions(
    oracle_flows: Sequence[Flow],
    hybrid_flows: Sequence[Flow],
    *,
    mean_tol: float = 0.25,
    p99_tol: float = 0.35,
    ks_bound: float = 0.30,
) -> EquivalenceReport:
    """Gate ``hybrid_flows`` against the packet-model ``oracle_flows``.

    Both sides must have completed the same number of flows per bucket
    (the scenarios are identical, so a count mismatch means flows were
    lost, which no tolerance excuses).  Empty buckets on both sides
    compare equal trivially.
    """
    o_all, o_small, o_large = _fcts(oracle_flows)
    h_all, h_small, h_large = _fcts(hybrid_flows)

    buckets = []
    for name, o, h in (("overall", o_all, h_all),
                       ("small", o_small, h_small),
                       ("large", o_large, h_large)):
        problems: List[str] = []
        mean_rel = p99_rel = 0.0
        if len(o) != len(h):
            problems.append(f"count mismatch oracle={len(o)} hybrid={len(h)}")
        elif o:
            mean_rel = _rel_diff(mean(o), mean(h))
            p99_rel = _rel_diff(percentile(o, 99.0), percentile(h, 99.0))
            if mean_rel > mean_tol:
                problems.append(f"mean off by {mean_rel:.1%} (> {mean_tol:g})")
            if p99_rel > p99_tol:
                problems.append(f"p99 off by {p99_rel:.1%} (> {p99_tol:g})")
        buckets.append(BucketComparison(
            name=name, n_oracle=len(o), n_hybrid=len(h),
            mean_rel=mean_rel, p99_rel=p99_rel, problems=problems))

    ks = ks_distance(o_all, h_all) if (o_all or h_all) else 0.0
    return EquivalenceReport(buckets=buckets, ks=ks, ks_bound=ks_bound,
                             mean_tol=mean_tol, p99_tol=p99_tol)
