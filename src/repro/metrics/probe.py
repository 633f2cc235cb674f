"""One periodic probe: read a value on a fixed simulated clock.

The paper's microbenchmarks each watch one quantity over time: the
bottleneck link's utilisation every 100us (Figs. 1 and 20), its HP/LP
buffer occupancy (Fig. 28), a sender's window and LCP state (the
dual-loop picture of Fig. 5, ``examples/dual_loop_timeline.py``).  Each
is a :class:`Probe` over a different ``read``; what a figure makes of
the samples (a utilisation delta, an average past a warm-up) stays with
the figure.

Lifecycle: a probe records ``(sim.now, read())`` when it is built and
every ``interval`` after, until :meth:`Probe.stop` — or until one of its
ticks finds nothing but probe ticks left in the event heap.  Without
that auto-stop a probed run could never reach the runner's heap-empty
early exit: the next tick would keep the heap warm until ``max_time``,
burning event budget and inflating ``live_pending``.

A probe rides in the simulator's heap, so a probed run checkpoints only
if ``read`` pickles: a module-level function, under
:func:`functools.partial` for its arguments.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Tuple

from ..sim.engine import Event, Simulator


class Probe:
    """Samples ``read()`` now and every ``interval`` simulated seconds
    after; ``samples`` holds the ``(time, value)`` pairs."""

    def __init__(self, sim: Simulator, read: Callable[[], Any],
                 interval: float) -> None:
        self.sim = sim
        self.read = read
        self.interval = interval
        self.samples: List[Tuple[float, Any]] = [(sim.now, read())]
        self.stopped = False
        self._pending: Optional[Event] = sim.schedule(interval, self._tick)

    def stop(self) -> None:
        """Cancel the pending tick; the probe never samples again."""
        self.stopped = True
        if self._pending is not None:
            self._pending.cancel()
            self._pending = None

    def _tick(self) -> None:
        sim = self.sim
        self._pending = None
        self.samples.append((sim.now, self.read()))
        # this tick is already popped: if only probe ticks remain, no
        # sample can ever change again
        for _time, fn, _args in sim.live_entries():
            if not isinstance(getattr(fn, "__self__", None), Probe):
                self._pending = sim.schedule(self.interval, self._tick)
                return
        self.stopped = True
