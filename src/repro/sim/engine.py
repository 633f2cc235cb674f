"""Discrete-event simulation engine.

A deliberately small, fast core: a binary heap of ``(time, seq, fn,
arg)`` entries.  ``seq`` is a monotonically increasing insertion counter
so that events scheduled for the same instant fire in insertion order,
which makes every simulation bit-for-bit reproducible.

The heap entry is the work itself.  The packet path (port serializer,
wire head arrival, each control packet on the ideal path) pushes
**direct entries** — the run loop calls ``fn(arg)`` and nothing else is
allocated
(:meth:`Simulator.schedule_direct`).  ``fn is None`` marks the only
other kind, a **cancellable handle**: ``arg`` is the :class:`Event`
that :meth:`Simulator.schedule` returned, :meth:`Event.cancel` marks it
dead and the run loop skips it (lazy deletion), which is the standard
way to get O(log n) cancellation out of ``heapq``.  Dead entries are
bounded: the simulator counts them, and ``cancel`` compacts the heap in
place as soon as they outnumber the live ones past
:data:`COMPACT_FLOOR`, so every push and pop sifts through the live
working set, not through timer corpses.  Only this module knows the
entry layout; everything else reads :meth:`Simulator.live_entries`.

Two more hot-path mechanisms keep per-packet overhead down (see
``docs/architecture.md`` §"The hot path"):

* **reserved sequence numbers** — :meth:`Simulator.reserve_seq` hands out
  a tie-break seq (or a block of them) *now* for events inserted *later*
  via :meth:`Simulator.schedule_reserved`.  The pipelined wire uses this
  to keep exactly one heap entry per link while firing arrivals with the
  exact ``(time, seq)`` keys the legacy one-event-per-packet model would
  have used — which is what makes the wire model bit-identical.
* an **event chain** (:class:`EventChain`) — a batch of pre-declared
  future events (the runner's flow-start schedule, materialised or
  streamed) reserves its seqs up front but keeps only its earliest
  entry resident in the heap; each firing arms the next.  Same
  determinism argument as the wire, applied to the control plane.
"""

from __future__ import annotations

import gc
import heapq
import sys
from typing import Any, Callable, Iterable, Iterator, Optional, Tuple

# Cancelled entries the heap may carry before ``cancel`` starts comparing
# them with the live ones: below this a compaction costs more than the
# shallower sifts give back.
COMPACT_FLOOR = 64

_INF = float("inf")
_NO_BUDGET = sys.maxsize


class Event:
    """A cancellable handle on a scheduled callback.  Returned by
    :meth:`Simulator.schedule`; holding one is always safe.

    The run loop re-uses ``cancelled`` as the fired marker (set just
    before the callback runs), so :meth:`cancel` is a no-op on an event
    that already went off — callers may keep a handle and cancel it
    late without corrupting the engine's dead-entry counter.
    """

    __slots__ = ("time", "fn", "args", "cancelled", "_sim")

    def __init__(self, time: float, fn: Optional[Callable[..., Any]],
                 args: tuple, sim: "Simulator"):
        self.time = time
        self.fn = fn
        self.args = args
        self.cancelled = False
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the event from firing.  Safe to call more than once,
        and a no-op on an event that has already fired.

        Drops the callback and its arguments: the corpse stays in the
        heap until popped or swept, and must not keep what the callback
        is bound to (a retired sender, its buffers) alive meanwhile."""
        if self.cancelled:
            return
        self.cancelled = True
        self.fn = self.args = None
        sim = self._sim
        sim._dead = dead = sim._dead + 1
        if dead > COMPACT_FLOOR and dead * 2 > len(sim._heap):
            sim.sweep()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "dead" if self.cancelled else "pending"
        name = getattr(self.fn, "__qualname__", repr(self.fn))
        return f"<Event t={self.time:.9f} {name} {state}>"


class Simulator:
    """The event loop.

    Usage::

        sim = Simulator()
        sim.schedule(1e-6, callback, arg1, arg2)
        sim.run(until=0.1)

    ``sim.now`` is the current simulation time in seconds.
    """

    __slots__ = ("now", "_heap", "_seq", "_events_run", "_running",
                 "_dead", "peak_pending")

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: list = []
        self._seq: int = 0
        self._events_run: int = 0
        self._running: bool = False
        # cancelled entries still resident in the heap (cancel/kill: +1,
        # a run loop popping a corpse: -1, sweep: 0).  Exact at all
        # times, so ``len(_heap) - _dead`` is the live count even inside
        # a callback.
        self._dead: int = 0
        # high-water mark of raw heap entries, updated on every push
        self.peak_pending: int = 0

    # -- checkpointing ---------------------------------------------------

    def __getstate__(self) -> dict:
        """Snapshot for :mod:`repro.resilience` checkpoints.

        Direct entries pickle as ``(time, seq, bound method, arg)``.
        ``_running`` is reset because checkpoints are only taken
        between drain slices, never from inside a callback.
        """
        if self._running:
            raise RuntimeError(
                "cannot snapshot a Simulator from inside a running callback; "
                "checkpoints must be taken between drain slices")
        return {
            "now": self.now,
            "_heap": self._heap,
            "_seq": self._seq,
            "_events_run": self._events_run,
            "peak_pending": self.peak_pending,
        }

    def __setstate__(self, state: dict) -> None:
        self.now = state["now"]
        self._heap = state["_heap"]
        self._seq = state["_seq"]
        self._events_run = state["_events_run"]
        self.peak_pending = state["peak_pending"]
        self._running = False
        # recounted, not stored
        self._dead = len(self._heap) - sum(1 for _ in self.live_entries())

    # -- scheduling -----------------------------------------------------

    # Delays more negative than this are genuine scheduling-into-the-past
    # bugs; anything closer to zero is floating-point residue from
    # ``schedule_at(time - now)`` and is clamped to "now".
    NEGATIVE_DELAY_TOLERANCE = -1e-12

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Run ``fn(*args)`` after ``delay`` seconds of simulated time."""
        if delay < 0:
            if delay < self.NEGATIVE_DELAY_TOLERANCE:
                raise ValueError(f"cannot schedule into the past (delay={delay})")
            delay = 0.0
        time = self.now + delay
        event = Event(time, fn, args, self)
        self._seq += 1
        heap = self._heap
        heapq.heappush(heap, (time, self._seq, None, event))
        if len(heap) > self.peak_pending:
            self.peak_pending = len(heap)
        return event

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Run ``fn(*args)`` at absolute simulated time ``time``."""
        return self.schedule(time - self.now, fn, *args)

    def reserve_seq(self, n: int = 1) -> int:
        """Claim the next ``n`` insertion-order seqs without scheduling
        yet; returns the first.

        Pair with :meth:`schedule_reserved` or :meth:`schedule_direct`.
        The pipelined wire reserves a seq the moment a packet finishes
        serializing (exactly when the legacy model would have scheduled
        its arrival), then inserts the head entry later — so
        same-instant tie-breaking is unchanged.
        An :class:`EventChain` with a known length reserves its whole
        block up front and hands the seqs out as its entries are pulled,
        so a streamed flow schedule and a materialised one use the same
        ``(time, seq)`` keys.
        """
        if n < 0:
            raise ValueError(f"cannot reserve {n} seqs")
        first = self._seq + 1
        self._seq += n
        return first

    def schedule_reserved(self, time: float, seq: int,
                          fn: Callable[..., Any], *args: Any) -> Event:
        """Insert a cancellable event at absolute ``time`` with a
        pre-reserved seq.

        ``time`` must not lie in the past and ``seq`` must come from
        :meth:`reserve_seq`.  No new seq is consumed, so surrounding
        ``schedule`` calls see the exact counter values they would have
        seen had the event been inserted at reservation time.
        """
        event = Event(time, fn, args, self)
        heap = self._heap
        heapq.heappush(heap, (time, seq, None, event))
        if len(heap) > self.peak_pending:
            self.peak_pending = len(heap)
        return event

    def schedule_direct(self, time: float, seq: int,
                        fn: Callable[[Any], Any], arg: Any) -> None:
        """Push the heap entry itself: the run loop calls ``fn(arg)`` at
        ``(time, seq)``.  No handle exists, so the entry cannot be
        cancelled (:meth:`kill` revokes one by seq, in O(heap)).

        Same contract as :meth:`schedule_reserved` for ``time`` and
        ``seq``.  The packet path inlines these three lines at its four
        push sites (``Port._start_next``/``_tx_done``, ``Wire._deliver``,
        ``ControlPipe.send``), where calling this method
        measured slower (docs/architecture.md, "measured and kept"); it
        stays as the reference those sites are held to.
        """
        heap = self._heap
        heapq.heappush(heap, (time, seq, fn, arg))
        if len(heap) > self.peak_pending:
            self.peak_pending = len(heap)

    def kill(self, seq: int) -> None:
        """Revoke the direct entry pushed under ``seq``: it is swapped
        for a cancelled handle with the same key, which the run loops
        skip and :meth:`sweep` removes like any other corpse.  O(heap) —
        for the rare revocation (a yanked cable) of entries whose hot
        path carries no handle."""
        heap = self._heap
        for index, (time, entry_seq, fn, _arg) in enumerate(heap):
            if entry_seq == seq and fn is not None:
                corpse = Event(time, None, (), self)
                heap[index] = (time, seq, None, corpse)  # same key: still a heap
                corpse.cancel()
                return
        raise ValueError(f"no direct entry with seq {seq} in the heap")

    def schedule_chain(self, entries: Iterable[Tuple],
                       count: Optional[int] = None) -> "EventChain":
        """Declare a batch of future events held as ONE heap entry.

        ``entries`` yields ``(absolute_time, fn, args)`` tuples.  A list
        or tuple is a materialised batch: it may come in any order (it
        is stably sorted by time) and its length is the ``count``.  Any
        other iterable is pulled lazily, one look-ahead entry at a time,
        must already be in non-decreasing time order, and needs
        ``count``: the exact number of entries it will yield.

        The chain reserves that many consecutive seqs up front, so every
        entry fires exactly where a loop of ``schedule_at`` calls made
        now (in time order) would have put it, and a lazily pulled
        source is bit-identical to the same entries materialised.
        """
        return EventChain(self, entries, count)

    # -- execution ------------------------------------------------------

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Drain the event heap.

        Stops when the heap is empty, when simulated time would pass
        ``until``, or after ``max_events`` events.  Returns the number of
        events executed by this call.
        """
        self._running = True
        # The loop allocates heavily (heap entries, packets, ACKs) but
        # creates no reference cycles, so the generational collector
        # only burns time scanning survivors — suspend it for the drain.
        # (~1k gen-0 collections per medium run otherwise.)
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            if max_events is None:
                if until is None:
                    executed = self._run_unbounded()
                else:
                    executed = self._run_until(until)
            else:
                executed = self._run_bounded(until, max_events)
        finally:
            self._running = False
            if gc_was_enabled:
                gc.enable()
        if until is not None and self.now < until:
            # Fast-forward the clock only when the heap really was drained
            # up to ``until``.  If the loop broke on ``max_events`` there
            # are still live events at or before ``until``; jumping past
            # them would make the next slice run with a clock *behind*
            # ``self.now`` — time must never go backwards.
            next_time = self.peek_time()
            if next_time is None or next_time > until:
                self.now = until
        # fires shrink the live set without passing through cancel():
        # re-check its bound, so it also holds between runs
        if self._dead > COMPACT_FLOOR and self._dead * 2 > len(self._heap):
            self.sweep()
        return executed

    # The three loops settle ``_events_run`` in a ``finally`` so the
    # counter stays true when a callback raises (the raising event was
    # dispatched, so it counts).

    def _run_unbounded(self) -> int:
        """Drain everything: no bound checks anywhere in the loop."""
        heap = self._heap
        pop = heapq.heappop
        executed = 0
        try:
            while heap:
                time, _seq, fn, arg = pop(heap)
                if fn is None:
                    if arg.cancelled:
                        self._dead -= 1
                        continue
                    arg.cancelled = True  # fired; late cancel() is a no-op
                    self.now = time
                    executed += 1
                    arg.fn(*arg.args)
                else:
                    self.now = time
                    executed += 1
                    fn(arg)
        finally:
            self._events_run += executed
        return executed

    def _run_until(self, until: float) -> int:
        """Time-sliced drain with no event budget — the common slice loop
        (the runner drains in ~200 slices per run), so it carries no
        per-iteration budget compare.  An overshooting head is pushed
        straight back (same key — order is untouched)."""
        heap = self._heap
        pop = heapq.heappop
        executed = 0
        try:
            while heap:
                entry = pop(heap)
                time, _seq, fn, arg = entry
                if fn is None:
                    if arg.cancelled:
                        self._dead -= 1
                        continue
                    if time > until:
                        heapq.heappush(heap, entry)
                        break
                    arg.cancelled = True  # fired; late cancel() is a no-op
                    self.now = time
                    executed += 1
                    arg.fn(*arg.args)
                else:
                    if time > until:
                        heapq.heappush(heap, entry)
                        break
                    self.now = time
                    executed += 1
                    fn(arg)
        finally:
            self._events_run += executed
        return executed

    def _run_bounded(self, until: Optional[float],
                     max_events: Optional[int]) -> int:
        """Slice drain: ``None`` bounds become +inf/maxsize sentinels so
        the loop compares plain numbers instead of branching on None.
        An overshooting head is pushed straight back (same key — order
        is untouched) rather than peeked at every iteration."""
        heap = self._heap
        pop = heapq.heappop
        until_f = _INF if until is None else until
        budget = _NO_BUDGET if max_events is None else max_events
        executed = 0
        try:
            while heap and executed < budget:
                entry = pop(heap)
                time, _seq, fn, arg = entry
                if fn is None:
                    if arg.cancelled:
                        self._dead -= 1
                        continue
                    if time > until_f:
                        heapq.heappush(heap, entry)
                        break
                    arg.cancelled = True
                    self.now = time
                    executed += 1
                    arg.fn(*arg.args)
                else:
                    if time > until_f:
                        heapq.heappush(heap, entry)
                        break
                    self.now = time
                    executed += 1
                    fn(arg)
        finally:
            self._events_run += executed
        return executed

    def live_entries(self) -> Iterator[Tuple[float, Callable[..., Any], Any]]:
        """``(time, fn, args_or_arg)`` of every entry that will fire, in
        heap (not time) order: ``args`` of a handle, the one ``arg`` of
        a direct entry.  The one reader of the entry layout for heap
        scanners (sampler, auditor, tests)."""
        for time, _seq, fn, arg in self._heap:
            if fn is not None:
                yield time, fn, arg
            elif not arg.cancelled:
                yield time, arg.fn, arg.args

    def peek_time(self) -> Optional[float]:
        """Time of the next live event, or None when there is none.

        Pure read: this never pops lazily-cancelled entries, so callers
        polling between slices (the runner watchdog) observe engine
        state without mutating it.  Use :meth:`sweep` when you actually
        want corpses dropped.
        """
        heap = self._heap
        if heap:
            time, _seq, fn, arg = heap[0]
            if fn is not None or not arg.cancelled:
                return time
        # cancelled head: scan for the earliest live entry (rare — the
        # run loop pops corpses for free as it drains)
        return min((time for time, _fn, _arg in self.live_entries()),
                   default=None)

    def sweep(self) -> int:
        """Drop every cancelled entry (not just head corpses) and
        restore the heap invariant; returns how many were removed.

        Determinism-safe: entries are totally ordered by their unique
        ``(time, seq)`` keys, so any valid heap over the same live
        entries pops in exactly the same order.  The list is rebuilt in
        place, so the run loops and the inlined push sites, which hold
        it as a local, keep seeing the one heap: ``Event.cancel`` calls
        this from inside callbacks whenever dead entries outnumber live
        ones.
        """
        removed = self._dead
        if removed:
            heap = self._heap
            heap[:] = [entry for entry in heap
                       if entry[2] is not None or not entry[3].cancelled]
            heapq.heapify(heap)
            self._dead = 0
        return removed

    @property
    def pending(self) -> int:
        """Number of heap entries, including cancelled ones."""
        return len(self._heap)

    @property
    def live_pending(self) -> int:
        """Number of pending events that will actually fire.

        ``pending`` counts raw heap entries, which with lazy deletion
        includes already-cancelled timers; diagnostics (the run-health
        watchdog, stall reports) should use this count instead.  O(1)
        and exact at all times, inside a callback too
        (``validate.RunAuditor`` cross-checks the dead-entry counter it
        is derived from against a full heap scan).
        """
        return len(self._heap) - self._dead

    @property
    def events_run(self) -> int:
        """Total events executed over the simulator's lifetime."""
        return self._events_run


class EventChain:
    """A batch of pre-declared events held as one resident heap entry.

    The reserve-then-arm trick of the pipelined wire, generalised: the
    chain holds ONE look-ahead entry (armed in the heap) plus the
    un-consumed source iterator, and each firing arms its successor.  A
    run that pre-declares N flow starts therefore keeps 1 heap entry for
    them instead of N, and a source that is pulled lazily (a
    multi-million-flow :class:`~repro.workloads.FlowStream`) never
    materialises its schedule at all.  See
    :meth:`Simulator.schedule_chain` for the ordering contract.

    The source must be picklable if the run is to be checkpointed: the
    chain sits in the simulator's object graph (via its armed head
    event), so a snapshot carries the iterator — and its RNG/cursor
    state — along, and a resumed run continues exactly where it stopped.

    Entries cannot be cancelled individually (nothing in the repo needs
    to); drop the chain wholesale with :meth:`cancel`.
    """

    __slots__ = ("sim", "_entries", "_next_seq", "_seqs_left", "_current",
                 "head_event")

    def __init__(self, sim: Simulator, entries: Iterable[Tuple],
                 count: Optional[int] = None) -> None:
        self.sim = sim
        if isinstance(entries, (list, tuple)):
            entries = sorted(entries, key=lambda entry: self._clamp(entry[0]))
            count = len(entries)
        self._entries = iter(entries)
        self._next_seq = sim.reserve_seq(count)
        self._seqs_left = count
        self._current: Optional[Tuple] = None
        self.head_event: Optional[Event] = None
        self._arm()

    def _clamp(self, time: float) -> float:
        """``time``, or "now" when it is floating-point residue behind
        the clock — the same tolerance :meth:`Simulator.schedule` has."""
        sim = self.sim
        delay = time - sim.now
        if delay >= 0:
            return time
        if delay < sim.NEGATIVE_DELAY_TOLERANCE:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        return sim.now

    def _arm(self) -> None:
        source = self._entries
        entry = None if source is None else next(source, None)
        if entry is None:
            if self._seqs_left:
                raise ValueError(
                    f"chain source ended {self._seqs_left} entries "
                    f"short of its declared count")
            self._current = None
            self._entries = None
            self.head_event = None
            return
        time, fn, args = entry
        sim = self.sim
        # the predecessor is firing right now, so an out-of-order source
        # shows up here as an entry behind the clock
        time = self._clamp(time)
        if self._seqs_left == 0:
            raise ValueError(
                "chain source yielded more entries than its declared count")
        seq = self._next_seq
        self._next_seq += 1
        self._seqs_left -= 1
        self._current = (fn, args)
        self.head_event = sim.schedule_reserved(time, seq, self._fire)

    def _fire(self) -> None:
        # arm the successor BEFORE the callback so a non-exhausted chain
        # always has its head in the heap, exactly like the wire
        fn, args = self._current
        self._arm()
        fn(*args)

    def cancel(self) -> None:
        """Stop the chain: no remaining entry will fire, the source is
        dropped un-consumed."""
        if self.head_event is not None:
            self.head_event.cancel()
            self.head_event = None
        self._current = None
        self._entries = None
        self._seqs_left = 0

