"""Time-series samplers: link utilisation and buffer occupancy.

Fig. 1 / Fig. 20 sample the bottleneck link's utilisation every 100us;
Fig. 28 compares high- vs low-priority queue occupancy.  Both samplers
piggyback on the port counters the simulator maintains anyway.

Lifecycle: a sampler reschedules itself every ``interval`` until it is
stopped.  It stops two ways — explicitly via :meth:`SamplerBase.stop`
(the experiment runner does this at drain end), or automatically when
its own timer is the only thing left in the event heap.  Without the
auto-stop, an instrumented run could never trigger the runner's
heap-empty early exit: the sampler's next tick kept the heap warm
forever, so the run idled to ``max_time`` burning event budget and
inflating ``live_pending``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..sim.engine import Simulator
from ..sim.link import Port


class SamplerBase:
    """Shared lifecycle for self-rescheduling samplers.

    Subclasses provide a ``samples`` list; auto-stop waits for the first
    sample so that probing an entirely idle fabric still yields one data
    point instead of none.
    """

    samples: list  # provided by subclasses

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.stopped = False
        self._pending = None  # the sampler's next scheduled Event

    def stop(self) -> None:
        """Cancel the pending tick; the sampler never fires again."""
        self.stopped = True
        if self._pending is not None:
            self._pending.cancel()
            self._pending = None

    def _reschedule(self, delay: float, fn) -> None:
        """Arm the next tick unless stopped or the fabric has gone idle."""
        if self.stopped:
            return
        if self.samples and self._fabric_idle():
            # nothing but sampler timers left: no sample can ever change
            # again, and rescheduling would keep the heap warm forever
            self.stop()
            return
        self._pending = self.sim.schedule(delay, fn)

    def _fabric_idle(self) -> bool:
        """True when every live pending event belongs to a sampler.

        Called from inside a tick (this sampler's own event is already
        popped), so "only sampler events remain" means the simulation
        proper can make no further progress.
        """
        for _time, fn, _args in self.sim.live_entries():
            owner = getattr(fn, "__self__", None)
            if owner is None or not isinstance(owner, SamplerBase):
                return False
        return True


@dataclass
class UtilizationSample:
    time: float
    utilization: float  # fraction of link capacity over the interval


class LinkUtilizationSampler(SamplerBase):
    """Samples a port's throughput every ``interval`` seconds."""

    def __init__(self, sim: Simulator, port: Port, interval: float,
                 start: float = 0.0) -> None:
        super().__init__(sim)
        self.port = port
        self.interval = interval
        self.samples: List[UtilizationSample] = []
        self._last_bytes = 0
        self._started = False
        self._pending = sim.schedule(start, self._start)

    def _start(self) -> None:
        self._pending = None
        if self.stopped:
            return
        self._last_bytes = self.port.bytes_sent
        self._started = True
        self._reschedule(self.interval, self._sample)

    def _sample(self) -> None:
        self._pending = None
        if self.stopped:
            return
        sent = self.port.bytes_sent
        delta = sent - self._last_bytes
        self._last_bytes = sent
        capacity = self.port.rate_bps * self.interval / 8.0
        self.samples.append(
            UtilizationSample(self.sim.now, delta / capacity if capacity else 0.0))
        self._reschedule(self.interval, self._sample)

    def utilizations(self) -> List[float]:
        return [s.utilization for s in self.samples]

    def average(self, skip: int = 0) -> float:
        values = self.utilizations()[skip:]
        if not values:
            return float("nan")
        return sum(values) / len(values)

    def minimum(self, skip: int = 0) -> float:
        values = self.utilizations()[skip:]
        return min(values) if values else float("nan")


@dataclass
class OccupancySample:
    time: float
    total: int
    high: int   # bytes in P0-P3
    low: int    # bytes in P4-P7


class BufferOccupancySampler(SamplerBase):
    """Samples a port's buffer occupancy split every ``interval``."""

    def __init__(self, sim: Simulator, port: Port, interval: float,
                 start: float = 0.0) -> None:
        super().__init__(sim)
        self.port = port
        self.interval = interval
        self.samples: List[OccupancySample] = []
        self._pending = sim.schedule(start, self._sample)

    def _sample(self) -> None:
        self._pending = None
        if self.stopped:
            return
        mux = self.port.mux
        split = mux.occupancy_split()
        self.samples.append(OccupancySample(
            self.sim.now, mux.occupancy, split["high"], split["low"]))
        self._reschedule(self.interval, self._sample)

    def averages(self, skip: int = 0) -> Tuple[float, float, float]:
        """(avg_total, avg_high, avg_low) in bytes."""
        samples = self.samples[skip:]
        if not samples:
            return (float("nan"),) * 3
        n = len(samples)
        return (
            sum(s.total for s in samples) / n,
            sum(s.high for s in samples) / n,
            sum(s.low for s in samples) / n,
        )
