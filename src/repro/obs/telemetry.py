"""Unified run telemetry: one object that owns every observation channel.

A :class:`Telemetry` instance gives a run three things at once:

* a **bounded ring-buffer event trace** — drops, ECN marks, trims,
  retransmits, RTO firings, fault open/close transitions, flow
  start/complete — fed by the chained hook sites in
  :mod:`repro.sim.queues`, :mod:`repro.transport.window`,
  :mod:`repro.faults.injectors` and :mod:`repro.experiments.runner`;
* **counter snapshots** — per-port :class:`~repro.sim.queues.QueueStats`
  and the column sums of the run's
  :class:`~repro.metrics.flowtable.FlowTable`, harvested once at drain
  end, so the rollup never disagrees with the counters the simulator
  keeps anyway;
* a **wall-clock profile** — events and elapsed seconds per drain
  slice, the events/sec trajectory the ``bench_core_engine`` benchmark
  tracks across commits.

Overhead contract: a run without telemetry pays exactly one ``None``
check per hook site (the hooks stay ``None``; no event objects, no
timestamps), so disabling telemetry preserves bit-identical behaviour.
The ring buffer bounds memory on pathological runs — ``events_seen``
keeps the true total while the deque keeps the most recent ``capacity``
events.

The trace exports to JSONL (one event per line) via :meth:`export_jsonl`
and round-trips through :func:`load_jsonl`; :meth:`summary` produces a
slim, picklable :class:`TelemetrySummary` that crosses process
boundaries the way :class:`~repro.experiments.parallel.RunSummary` does.
"""

from __future__ import annotations

import json
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from .hooks import chain

# Event kinds recorded in the trace.
DROP = "drop"
MARK = "mark"
TRIM = "trim"
RETRANSMIT = "retransmit"
RTO = "rto"
FAULT_DOWN = "fault_down"
FAULT_UP = "fault_up"
FLOW_START = "flow_start"
FLOW_COMPLETE = "flow_complete"
PAUSE = "pause"
RESUME = "resume"
# hybrid fast path (repro.sim.hybrid): one per congestion epoch / one
# per abstract-flow demotion to packet mode
HYBRID_EPOCH = "hybrid_epoch"
HYBRID_DEMOTE = "hybrid_demote"

EVENT_KINDS = (
    DROP, MARK, TRIM, RETRANSMIT, RTO,
    FAULT_DOWN, FAULT_UP, FLOW_START, FLOW_COMPLETE,
    PAUSE, RESUME,
    HYBRID_EPOCH, HYBRID_DEMOTE,
)

_QUEUE_COUNTER_FIELDS = (
    "offered", "enqueued", "dequeued", "dropped", "dropped_after_enqueue",
    "trimmed", "marked",
    "bytes_offered", "bytes_enqueued", "bytes_dequeued", "bytes_dropped",
    "bytes_dropped_after_enqueue", "bytes_trimmed",
)


class TraceEvent:
    """One traced event.  Plain ``__slots__`` object — millions may be
    created on a lossy run, so no dataclass machinery."""

    __slots__ = ("time", "kind", "port", "flow_id", "seq", "priority", "detail")

    def __init__(self, time: float, kind: str, port: str = "",
                 flow_id: int = -1, seq: int = -1, priority: int = -1,
                 detail: str = "") -> None:
        self.time = time
        self.kind = kind
        self.port = port
        self.flow_id = flow_id
        self.seq = seq
        self.priority = priority
        self.detail = detail

    def to_dict(self) -> dict:
        out = {"t": self.time, "kind": self.kind}
        if self.port:
            out["port"] = self.port
        if self.flow_id >= 0:
            out["flow"] = self.flow_id
        if self.seq >= 0:
            out["seq"] = self.seq
        if self.priority >= 0:
            out["prio"] = self.priority
        if self.detail:
            out["detail"] = self.detail
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "TraceEvent":
        return cls(
            time=float(data["t"]),
            kind=data["kind"],
            port=data.get("port", ""),
            flow_id=int(data.get("flow", -1)),
            seq=int(data.get("seq", -1)),
            priority=int(data.get("prio", -1)),
            detail=data.get("detail", ""),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        extra = " ".join(f"{k}={v}" for k, v in self.to_dict().items()
                         if k not in ("t", "kind"))
        return f"<TraceEvent {self.kind} @ {self.time:.9f} {extra}>"


@dataclass
class TelemetrySummary:
    """Picklable rollup of one run's telemetry — what sweeps keep.

    ``counts`` tallies every traced event by kind (counted even when the
    ring buffer overflowed); the named totals come from the counter
    snapshots harvested at drain end, so they match the simulator's own
    :class:`~repro.sim.queues.QueueStats` / RunHealth numbers exactly.
    """

    events_seen: int = 0
    events_kept: int = 0
    counts: Dict[str, int] = field(default_factory=dict)
    drops: int = 0
    marks: int = 0
    trims: int = 0
    retransmits: int = 0
    rtos: int = 0
    flows_started: int = 0
    flows_completed: int = 0
    # lossless / load-balancing counters (PFC + flowlet/CONGA)
    pauses_sent: int = 0
    pauses_received: int = 0
    pause_seconds: float = 0.0
    flowlet_repins: int = 0
    # hybrid fast-path counters (zero on pure packet runs)
    hybrid_epochs: int = 0
    hybrid_demotions: int = 0
    # profiling rollup (events/sec over the profiled drain slices)
    slices: int = 0
    sim_events: int = 0
    wall_seconds: float = 0.0
    # high-water mark of engine heap entries (``sim.peak_pending``) —
    # the memory-pressure signal the pipelined wire model is meant to
    # shrink
    peak_pending: int = 0

    @property
    def events_per_sec(self) -> float:
        if self.wall_seconds <= 0.0:
            return float("nan")
        return self.sim_events / self.wall_seconds

    def describe(self) -> str:
        parts = [f"{self.drops} drops", f"{self.marks} marks",
                 f"{self.trims} trims", f"{self.retransmits} rtx",
                 f"{self.rtos} RTOs",
                 f"{self.flows_completed}/{self.flows_started} flows"]
        if self.pauses_sent or self.pauses_received:
            parts.append(f"{self.pauses_sent} pauses "
                         f"({self.pause_seconds * 1e3:.3g}ms paused)")
        if self.flowlet_repins:
            parts.append(f"{self.flowlet_repins} flowlet re-pins")
        if self.hybrid_epochs or self.hybrid_demotions:
            parts.append(f"{self.hybrid_epochs} hybrid epochs "
                         f"({self.hybrid_demotions} demotions)")
        if self.events_seen > self.events_kept:
            parts.append(f"trace kept {self.events_kept}/{self.events_seen}")
        if self.wall_seconds > 0.0:
            parts.append(f"{self.events_per_sec:,.0f} ev/s")
        return "; ".join(parts)


class _PortHook:
    """Per-port mux hook feeding the telemetry trace.

    A picklable callable class (not a closure): simulator checkpoints
    (:mod:`repro.resilience`) snapshot the run graph including every
    installed hook, so hook objects must survive pickling.
    """

    __slots__ = ("telemetry", "kind", "port_name")

    def __init__(self, telemetry: "Telemetry", kind: str, port_name: str) -> None:
        self.telemetry = telemetry
        self.kind = kind
        self.port_name = port_name

    def __call__(self, pkt) -> None:
        telemetry = self.telemetry
        telemetry.record(self.kind, telemetry.sim.now, port=self.port_name,
                         flow_id=pkt.flow_id, seq=pkt.seq,
                         priority=pkt.priority)

    def __getstate__(self):
        return (self.telemetry, self.kind, self.port_name)

    def __setstate__(self, state) -> None:
        self.telemetry, self.kind, self.port_name = state


class Telemetry:
    """Owns a run's event trace, counter snapshots and wall-clock profile.

    Create one (optionally with a ring capacity), pass it to
    :func:`repro.experiments.runner.run` via ``observe=``, then read
    ``result.telemetry`` — or call :meth:`attach` yourself against a
    hand-built topology.  A single instance observes a single run; reuse
    across runs would conflate their counter snapshots.
    """

    def __init__(self, capacity: int = 65_536) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.events: deque = deque(maxlen=capacity)
        self.events_seen = 0
        self.counts: Counter = Counter()
        self.sim = None
        self.attached = False
        # harvested at finalize()
        self.port_counters: Dict[str, Dict[str, int]] = {}
        self.retransmits = 0
        self.rtos = 0
        self.pauses_sent = 0
        self.pauses_received = 0
        self.pause_seconds = 0.0
        self.flowlet_repins = 0
        # (slice_end_sim_time, events_executed, wall_seconds) per drain slice
        self.profile: List[tuple] = []

    # -- recording (the hook side) ----------------------------------------

    def record(self, kind: str, t: float, port: str = "", flow_id: int = -1,
               seq: int = -1, priority: int = -1, detail: str = "") -> None:
        """Append one event to the bounded trace."""
        self.events_seen += 1
        self.counts[kind] += 1
        self.events.append(
            TraceEvent(t, kind, port, flow_id, seq, priority, detail))

    def record_slice(self, sim_time: float, events: int, wall: float) -> None:
        """One drain slice's profiling sample (events/sec trajectory)."""
        self.profile.append((sim_time, events, wall))

    # -- wiring ------------------------------------------------------------

    def attach(self, sim, network, faults=None) -> "Telemetry":
        """Install chained hooks on every port mux and fault injector.

        ``network`` is any object with a ``ports`` list (each port
        exposing ``name`` and ``mux``); ``faults`` is an optional
        :class:`~repro.faults.plan.ActiveFaults` handle whose link
        injectors report open/close transitions.  Safe to combine with
        other hook consumers (tracers): everything chains.
        """
        if self.attached:
            raise RuntimeError("Telemetry is single-run; already attached")
        self.attached = True
        self.sim = sim
        for port in network.ports:
            port.mux.add_drop_hook(self._port_hook(DROP, port))
            port.mux.add_mark_hook(self._port_hook(MARK, port))
            port.mux.add_trim_hook(self._port_hook(TRIM, port))
            port.pause_hook = chain(port.pause_hook, self._pause_transition)
        if faults is not None:
            for injector in faults.link_injectors:
                injector.transition_hook = chain(
                    injector.transition_hook, self._fault_transition)
        return self

    def _port_hook(self, kind: str, port) -> "_PortHook":
        return _PortHook(self, kind, port.name)

    def _fault_transition(self, port, is_down: bool) -> None:
        self.record(FAULT_DOWN if is_down else FAULT_UP, self.sim.now,
                    port=port.name)

    def _pause_transition(self, port, priority: int, paused: bool) -> None:
        self.record(PAUSE if paused else RESUME, self.sim.now,
                    port=port.name, priority=priority)

    # targets for the runner / window-sender hook sites

    def on_flow_start(self, flow) -> None:
        self.record(FLOW_START, self.sim.now, flow_id=flow.flow_id)

    def on_flow_complete(self, flow) -> None:
        self.record(FLOW_COMPLETE, self.sim.now, flow_id=flow.flow_id)

    def on_retransmit(self, t: float, flow_id: int, seq: int) -> None:
        self.record(RETRANSMIT, t, flow_id=flow_id, seq=seq)

    def on_rto(self, t: float, flow_id: int) -> None:
        self.record(RTO, t, flow_id=flow_id)

    # -- harvest -----------------------------------------------------------

    def finalize(self, network, table) -> None:
        """Snapshot per-port counters at drain end, and the retransmit
        and RTO totals of ``table`` — the run's
        :class:`~repro.metrics.flowtable.FlowTable`, whose column sums
        ``RunHealth`` reports too, so the two cannot disagree."""
        self.port_counters = {
            port.name: {name: getattr(port.mux.stats, name)
                        for name in _QUEUE_COUNTER_FIELDS}
            for port in network.ports
        }
        now = self.sim.now if self.sim is not None else 0.0
        self.pauses_sent = sum(
            c.pauses_sent for c in getattr(network, "pfc_controllers", []))
        self.pauses_received = sum(
            getattr(port, "pauses_received", 0) for port in network.ports)
        self.pause_seconds = sum(
            port.total_pause_seconds(now) for port in network.ports
            if getattr(port, "pauses_received", 0))
        self.flowlet_repins = sum(
            switch.lb.repins for switch in getattr(network, "switches", [])
            if switch.lb is not None)
        self.retransmits = sum(table.retransmits)
        self.rtos = sum(table.rtos)

    # -- reading -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.events)

    def iter_events(self, kind: Optional[str] = None) -> Iterator[TraceEvent]:
        if kind is None:
            return iter(self.events)
        return (e for e in self.events if e.kind == kind)

    def total_port_counter(self, name: str) -> int:
        """Sum one harvested QueueStats field over every port."""
        return sum(c[name] for c in self.port_counters.values())

    def summary(self) -> TelemetrySummary:
        """Slim rollup; counter totals come from the drain-end snapshots
        (exact), event counts from the trace tallies (exact even when
        the ring overflowed)."""
        slices = len(self.profile)
        return TelemetrySummary(
            events_seen=self.events_seen,
            events_kept=len(self.events),
            counts=dict(self.counts),
            drops=self.total_port_counter("dropped"),
            marks=self.total_port_counter("marked"),
            trims=self.total_port_counter("trimmed"),
            retransmits=self.retransmits,
            rtos=self.rtos,
            flows_started=self.counts.get(FLOW_START, 0),
            flows_completed=self.counts.get(FLOW_COMPLETE, 0),
            pauses_sent=self.pauses_sent,
            pauses_received=self.pauses_received,
            pause_seconds=self.pause_seconds,
            flowlet_repins=self.flowlet_repins,
            hybrid_epochs=self.counts.get(HYBRID_EPOCH, 0),
            hybrid_demotions=self.counts.get(HYBRID_DEMOTE, 0),
            slices=slices,
            sim_events=sum(events for _t, events, _w in self.profile),
            wall_seconds=sum(wall for _t, _e, wall in self.profile),
            peak_pending=getattr(self.sim, "peak_pending", 0)
            if self.sim is not None else 0,
        )

    # -- persistence -------------------------------------------------------

    def export_jsonl(self, path) -> int:
        """Write the kept events to ``path``, one JSON object per line.

        Returns the number of events written.  The format round-trips
        through :func:`load_jsonl`.
        """
        written = 0
        with open(path, "w", encoding="utf-8") as fh:
            for event in self.events:
                fh.write(json.dumps(event.to_dict(), sort_keys=True))
                fh.write("\n")
                written += 1
        return written

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Telemetry {self.events_seen} events seen, "
                f"{len(self.events)} kept>")


def load_jsonl(path) -> List[TraceEvent]:
    """Read a JSONL trace written by :meth:`Telemetry.export_jsonl`."""
    events: List[TraceEvent] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                events.append(TraceEvent.from_dict(json.loads(line)))
    return events
