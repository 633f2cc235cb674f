"""Flow-completion-time statistics — the paper's primary metric.

Every FCT figure reports some subset of four numbers, which
:class:`FctStats` computes from a list of completed flows:

* overall average FCT,
* average FCT of small flows (0, 100KB],
* 99th-percentile (tail) FCT of small flows,
* average FCT of large flows (100KB, inf).

The 100KB boundary is the paper's throughout (Table 2, Figs. 8-13).
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Iterable, Sequence

from ..transport.base import Flow

SMALL_FLOW_BYTES = 100_000


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolation percentile (p in [0, 100])."""
    if not values:
        return float("nan")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (p / 100.0) * (len(ordered) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return ordered[low]
    frac = rank - low
    value = ordered[low] * (1.0 - frac) + ordered[high] * frac
    # clamp: floating-point interpolation must stay within the sample
    return min(max(value, ordered[low]), ordered[high])


def mean(values: Sequence[float]) -> float:
    if not values:
        return float("nan")
    return sum(values) / len(values)


@dataclass
class FctStats:
    """Summary statistics over a set of completed flows."""

    n_flows: int
    n_small: int
    n_large: int
    overall_avg: float
    small_avg: float
    small_p99: float
    large_avg: float

    @classmethod
    def from_flows(cls, flows: Iterable[Flow]) -> "FctStats":
        fcts, small, large = array("d"), array("d"), array("d")
        for flow in flows:
            fct = flow.fct
            if fct is None:
                continue
            fcts.append(fct)
            if flow.size <= SMALL_FLOW_BYTES:
                small.append(fct)
            else:
                large.append(fct)
        return cls(
            n_flows=len(fcts),
            n_small=len(small),
            n_large=len(large),
            overall_avg=mean(fcts),
            small_avg=mean(small),
            small_p99=percentile(small, 99.0),
            large_avg=mean(large),
        )

    def row(self) -> dict:
        """Flat dict, milliseconds, for table printing — the one
        seconds-to-milliseconds rendering of the four FCT numbers.
        Empty buckets render as explicit ``"n=0"`` markers instead of
        NaN."""
        def cell(value: float, n: int):
            return value * 1e3 if n else "n=0"
        return {
            "flows": self.n_flows,
            "overall_avg_ms": cell(self.overall_avg, self.n_flows),
            "small_avg_ms": cell(self.small_avg, self.n_small),
            "small_p99_ms": cell(self.small_p99, self.n_small),
            "large_avg_ms": cell(self.large_avg, self.n_large),
        }

    def __str__(self) -> str:
        def cell(value: float, n: int) -> str:
            return f"{value * 1e3:.3f}ms" if n else "n=0"
        return (
            f"n={self.n_flows} overall={cell(self.overall_avg, self.n_flows)} "
            f"small_avg={cell(self.small_avg, self.n_small)} "
            f"small_p99={cell(self.small_p99, self.n_small)} "
            f"large_avg={cell(self.large_avg, self.n_large)}"
        )


def reduction(baseline: float, ours: float) -> float:
    """Paper-style percentage reduction of ``ours`` vs ``baseline``."""
    if baseline == 0 or math.isnan(baseline) or math.isnan(ours):
        return float("nan")
    return (baseline - ours) / baseline * 100.0
