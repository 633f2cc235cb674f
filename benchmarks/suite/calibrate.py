"""Machine-speed calibration for host-time metrics.

The sandbox this suite runs in is a shared 2-vCPU VM whose speed drifts
by 10-60 % over tens of seconds (measured: a fixed pure-Python loop
timed in 5 s windows ranged 0.092-0.123 s; fixed simulator reps in 15 s
windows had an inter-quartile spread of 15-20 % of their median).  Raw
wall time therefore cannot resolve a 10 % regression.  The drift is
common-mode across Python workloads, so every timed section is
bracketed by a fixed kernel and reported as

    seconds * CAL_REF_S / (mean kernel time around the section)

i.e. in seconds of a reference machine on which the kernel takes
``CAL_REF_S``.  That is about the sizing box's quiet state (its long-run
median is ~0.105 s), so the scaled numbers read as that box's
quiet-state wall seconds; same-seed repeats scaled this way spread
1.4 % instead of 5.5 %, and 5 % instead of 20 % across a slow phase.

The kernel imitates the simulator's instruction mix (heap push/pop of
tuples, method calls on slotted objects, dict stores, float arithmetic)
and touches no code under test, so optimising the simulator cannot move
it.
"""

from __future__ import annotations

import heapq
import time
from typing import Callable, Tuple, TypeVar

T = TypeVar("T")

#: kernel time on the reference (sizing) box, seconds
CAL_REF_S = 0.100
KERNEL_ITERATIONS = 250_000


class _Node:
    __slots__ = ("value", "total")

    def __init__(self, value: int) -> None:
        self.value = value
        self.total = value * 2.0

    def step(self, x: float) -> float:
        self.total += x * 0.5
        return self.total


def kernel(iterations: int = KERNEL_ITERATIONS) -> float:
    heap: list = []
    seen: dict = {}
    push, pop = heapq.heappush, heapq.heappop
    for i in range(64):
        push(heap, (i * 0.1, i, _Node(i)))
    total = 0.0
    for i in range(iterations):
        when, _, node = pop(heap)
        total = node.step(when)
        seen[i & 1023] = node
        push(heap, (when + 1.0 + (i % 7) * 0.01, i + 64, node))
    return total


def kernel_seconds() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


class Calibrated:
    """Times sections between kernel blocks; each section's scale factor
    is ``CAL_REF_S`` over the mean of the two blocks around it."""

    def __init__(self) -> None:
        self._last = kernel_seconds()

    def timed(self, fn: Callable[[], T]) -> Tuple[T, float, float]:
        """Run ``fn``; returns ``(result, raw_seconds, scaled_seconds)``."""
        start = time.perf_counter()
        result = fn()
        raw = time.perf_counter() - start
        before, self._last = self._last, kernel_seconds()
        return result, raw, raw * CAL_REF_S / ((before + self._last) / 2.0)
