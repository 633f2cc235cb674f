"""Experiment harness: run one scheme over one scenario, collect results.

A :class:`Scenario` bundles a topology factory, a flow list factory, a
transport config and (optionally) a :class:`~repro.faults.FaultPlan`;
:func:`run` builds a fresh fabric, lets the scheme configure it
(trimming, spraying, selective drop), applies the fault plan, schedules
every flow's start, drains the simulator under a run-health watchdog and
returns a :class:`RunResult` with FCT statistics, a structured
:class:`RunHealth` (completion rate, retransmit/RTO counts, stall
diagnosis, active faults) and the live network for deeper inspection.

The watchdog replaces the old silent spin-to-``max_time``: it stops as
soon as the event heap empties (nothing can ever make progress again),
enforces an optional per-run event budget, and detects stalls — no new
completions *and* no new deliveries across a sliding window — while
giving fault windows (plus an RTO-cap-sized grace period) the benefit of
the doubt, since riding out a fault is precisely what transports are
being tested on.

Because every piece of randomness is seeded, running the same scenario
twice gives identical flows and identical packet-level behaviour — which
is what makes the two-pass *hypothetical DCTCP* construction
(:func:`two_pass`) meaningful.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import math
import time as _time
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Any, Callable, Iterator, List, Optional,
                    Tuple, Union)

from ..metrics.fct import FctStats
from ..metrics.flowtable import FlowTable
from ..obs.hooks import chain
from ..sim.network import Network
from ..sim.topology import Topology
from ..transport.base import Flow, Scheme, TransportConfig, TransportContext
from ..workloads.streams import FlowStream

# Telemetry, the auditor, the hybrid fast path, the two-pass oracle and
# the checkpoint module (with ``pickle``) are imported where a run
# switches them on (a fault plan arrives built), so a bare run never
# loads them.
if TYPE_CHECKING:
    from ..faults.plan import ActiveFaults, FaultPlan
    from ..obs.telemetry import Telemetry
    from ..sim.hybrid import HybridConfig, HybridController
    from ..validate.auditor import RunAuditor
    from ..validate.report import ValidationReport


# the stall watchdog's window, in drain slices
STALL_SLICES = 40


@dataclass
class Scenario:
    """A reproducible experiment setup.

    ``build_topology`` returns a fresh :class:`Topology` (with its own
    simulator);  ``build_flows`` receives that topology and returns
    either a flow **list** or a :class:`~repro.workloads.FlowStream`
    (so patterns can reference real host ids and rates).  A list is
    scheduled up front; a stream is pulled lazily — one look-ahead flow
    at a time — so the schedule never materializes, and for the same
    seed the streamed run is bit-identical to the materialized one (see
    ``docs/workloads.md``).  Transport state stays flat too: a finished
    window sender and its second loop are retired
    (:meth:`~repro.transport.base.TransportContext.retire`), and its
    receiver once nothing of the flow is left on the fabric
    (:meth:`~repro.transport.base.TransportContext.retire_receiver`),
    each writing its counters into its flow's ``FlowTable`` row.  What
    stays per flow seen is its record — the ``Flow`` with its times
    (~210 B) and that row (~135 B), plus the receiver of a flow that
    lost a packet: about 370 B on a streamed PPT Memcached run
    (``benchmarks/bench_ext_seq_state.py``).
    ``faults`` re-runs the identical
    workload under a deterministic fault schedule; ``event_budget``
    bounds runaway runs.  Whatever must watch a run from its first
    instant (a :class:`~repro.metrics.Probe`) attaches by wrapping
    ``build_topology`` under :func:`dataclasses.replace`.
    """

    name: str
    build_topology: Callable[[], Topology]
    build_flows: Callable[[Topology], Union[List[Flow], FlowStream]]
    config: TransportConfig = field(default_factory=TransportConfig)
    max_time: float = 10.0  # simulated-seconds safety stop
    faults: Optional[FaultPlan] = None
    event_budget: Optional[int] = None  # max simulator events per run
    # hybrid flow-level fast path (repro.sim.hybrid); None takes the
    # identical code path as before the feature existed
    hybrid: Optional[HybridConfig] = None

    def __post_init__(self) -> None:
        if self.event_budget is not None and self.event_budget <= 0:
            raise ValueError(f"event_budget must be positive, "
                             f"got {self.event_budget}")


@dataclass
class RunHealth:
    """Structured diagnosis of how (and whether) a run finished.

    Replaces the old silent timeout: every :class:`RunResult` carries
    one of these, so a partial ``FctStats`` always comes with the *why*
    — stalled behind a dead link, out of event budget, or simply still
    progressing at ``max_time``.
    """

    n_flows: int = 0
    completed: int = 0
    stalled: bool = False
    stall_time: Optional[float] = None
    stall_reason: Optional[str] = None
    dead_links: List[str] = field(default_factory=list)
    faults_active_at_stall: List[str] = field(default_factory=list)
    fault_windows: List[str] = field(default_factory=list)
    fault_drops: int = 0
    retransmits_total: int = 0
    rtos_total: int = 0
    event_budget_exceeded: bool = False
    events_run: int = 0
    sim_time: float = 0.0
    # live (non-cancelled) events still pending when the drain stopped —
    # the engine's raw heap length also counts lazily-deleted timers, so
    # diagnostics use Simulator.live_pending instead
    live_pending: int = 0
    # high-water mark of raw heap entries over the run (memory pressure;
    # the pipelined wire model keeps this flat under incast)
    peak_pending: int = 0

    @property
    def completion_rate(self) -> float:
        return self.completed / max(1, self.n_flows)

    @property
    def ok(self) -> bool:
        """All flows completed without stalling or budget exhaustion."""
        return (self.completed == self.n_flows and not self.stalled
                and not self.event_budget_exceeded)

    def summary(self) -> str:
        parts = [f"{self.completed}/{self.n_flows} flows",
                 f"{self.retransmits_total} rtx", f"{self.rtos_total} RTOs"]
        if self.fault_windows:
            parts.append(f"{len(self.fault_windows)} fault window(s), "
                         f"{self.fault_drops} fault drops")
        if self.stalled:
            parts.append(f"STALLED @ {self.stall_time:.6g}s: "
                         f"{self.stall_reason}")
        if self.event_budget_exceeded:
            parts.append("event budget exceeded")
        return "; ".join(parts)


@dataclass
class RunResult:
    scheme_name: str
    scenario_name: str
    flows: List[Flow]
    stats: FctStats
    # one row per pulled flow: FCT and per-flow transport counters
    table: FlowTable
    topology: Topology
    ctx: TransportContext
    wall_events: int
    health: RunHealth = field(default_factory=RunHealth)
    # The run's Telemetry (event trace + counter snapshots + profile)
    # when ``run(..., observe=...)`` asked for one; None otherwise.
    telemetry: Optional[Telemetry] = None
    # The invariant auditor's report when ``run(..., validate=...)``
    # asked for one; None otherwise.
    validation: Optional[ValidationReport] = None

    @property
    def completed(self) -> int:
        return sum(1 for f in self.flows if f.completed)

    # health.n_flows, not len(flows): a streamed run that stops early
    # holds only the flows pulled so far
    def summary(self) -> str:
        return (f"[{self.scheme_name} @ {self.scenario_name}] "
                f"{self.completed}/{self.health.n_flows} flows, {self.stats}")


@dataclass
class RunState:
    """One run between its assembly and its harvest — the picklable
    snapshot a :mod:`repro.resilience` checkpoint holds, taken at a
    drain-slice boundary.

    Everything :func:`run` needs to finish the run lives here: the live
    object graph (``topo`` owns the simulator and fabric;
    ``ctx``/``flows``/``faults``/``telemetry``/``auditor`` share
    references into it) plus the drain loop's scalar state.
    """

    # identity (checked against the caller's scheme/scenario at resume)
    scheme_name: str = ""
    scenario_name: str = ""

    # the live run graph — one shared-reference pickle
    topo: Any = None
    ctx: Any = None
    flows: list = field(default_factory=list)
    faults: Any = None
    telemetry: Any = None
    auditor: Any = None

    # the run's flow target: len(flows) for a materialized workload,
    # the FlowStream's declared total for a streamed one (``flows``
    # then only holds the prefix pulled so far — the un-consumed stream
    # itself travels inside the sim graph via the lazy start chain)
    total_flows: int = 0

    # drain limits copied off the Scenario (builders are not picklable)
    max_time: float = 10.0
    event_budget: Optional[int] = None
    max_rto: float = 0.25

    # drain-loop position
    t: float = 0.0
    last_signature: Optional[tuple] = None
    last_progress_t: float = 0.0
    last_checkpoint_t: float = 0.0
    checkpoints_taken: int = 0

    @property
    def sim(self):
        return self.topo.sim

    def header(self) -> dict:
        """The plain-data header written ahead of the state pickle."""
        from ..resilience.checkpoint import checkpoint_header
        return checkpoint_header(self)


def save_checkpoint(state: RunState, path) -> dict:
    """:func:`repro.resilience.checkpoint.save_checkpoint`, imported by
    the first snapshot a run takes; :func:`_drain` calls it through this
    name."""
    from ..resilience.checkpoint import save_checkpoint as save
    return save(state, path)


def _progress_signature(ctx: TransportContext, network: Network) -> tuple:
    """Snapshot of forward progress: completions, every registered
    endpoint's delivered-packet count (window senders and receivers both
    expose a ``delivered`` view; a receiver-driven scheme's
    ``MessageEndpoint`` exposes its message's; endpoints without one,
    such as the receiver-driven senders, count nothing), the number of
    registered endpoints (so a newly started flow counts as progress)
    and of retired senders (a retirement takes a sender's count out of
    the sum; a receiver's takes its count and its entry out).  If
    this is unchanged across the watchdog window, nothing useful is
    happening — retransmit storms and idling RTO timers keep the heap
    warm but do not move it."""
    delivered = 0
    endpoints = 0
    for host in network.hosts.values():
        endpoints += len(host.endpoints)
        for endpoint in host.endpoints.values():
            # try/except instead of getattr(..., None): nearly every
            # endpoint has ``delivered``, and a caught attribute miss
            # is the rare path — this runs once per endpoint per slice
            try:
                delivered += len(endpoint.delivered)
            except AttributeError:
                pass
    hybrid = ctx.extra.get("hybrid")
    if hybrid is not None:
        # analytic progress has no packets for the counters above to
        # see: fold in the controller's projected-delivery probe so an
        # hours-long abstract epoch never reads as a stall
        return (len(ctx.completed), delivered, endpoints, ctx.retired,
                hybrid.progress_probe(network.sim.now))
    return (len(ctx.completed), delivered, endpoints, ctx.retired)


def _resolve_observe(observe: Union[None, bool, Telemetry]) -> Optional[Telemetry]:
    """``observe=`` accepts False/None (off), True (fresh default
    Telemetry) or a preconfigured :class:`~repro.obs.Telemetry`."""
    if observe is None or observe is False:
        return None
    from ..obs.telemetry import Telemetry
    if observe is True:
        return Telemetry()
    if isinstance(observe, Telemetry):
        return observe
    raise TypeError(f"observe must be bool or Telemetry, got {observe!r}")


def _resolve_validate(
        validate: Union[None, bool, str, RunAuditor]) -> Optional[RunAuditor]:
    """``validate=`` accepts False/None (off), True (audit mode),
    ``"strict"`` (raise on first violation) or a preconfigured
    :class:`~repro.validate.RunAuditor`."""
    if validate is None or validate is False:
        return None
    from ..validate.auditor import RunAuditor
    if validate is True:
        return RunAuditor()
    if validate == "strict":
        return RunAuditor(strict=True)
    if isinstance(validate, RunAuditor):
        return validate
    raise TypeError(
        f"validate must be bool, 'strict' or RunAuditor, got {validate!r}")


def _observed_start(scheme: Scheme, flow: Flow, ctx: TransportContext,
                    telemetry: Telemetry) -> None:
    telemetry.on_flow_start(flow)
    scheme.start_flow(flow, ctx)


class _FlowStarts:
    """Adapts a :class:`~repro.workloads.FlowStream` into the
    ``(time, fn, args)`` entries an event chain pulls.

    Every pulled flow is appended to ``sink`` — the run's shared
    ``flows`` list — and gets its row in ``table``, so results,
    telemetry and the stall watchdog see exactly the flows that have
    entered the simulation.  A plain class (not a generator) because the
    chain pickles into checkpoints and generators do not survive
    ``pickle``.
    """

    def __init__(self, stream: FlowStream, sink: List[Flow],
                 table: FlowTable, fn: Callable, extra_args: tuple) -> None:
        self._stream = iter(stream)
        self._sink = sink
        self._table = table
        self._fn = fn
        self._extra = extra_args

    def __iter__(self) -> "_FlowStarts":
        return self

    def __next__(self) -> tuple:
        flow = next(self._stream)
        self._sink.append(flow)
        self._table.add(flow)
        return (flow.start_time, self._fn, (flow,) + self._extra)


def check_checkpointing(checkpoint_every: Optional[float],
                        checkpoint_path) -> None:
    """:func:`run`'s checkpoint rule: the interval and the path come
    together, and the interval is finite and ``>= 0`` (a NaN one would
    never snapshot); anything else raises :class:`ValueError`."""
    if (checkpoint_every is None) != (checkpoint_path is None):
        raise ValueError("checkpoint_every and checkpoint_path go together, "
                         f"got {checkpoint_every!r} and {checkpoint_path!r}")
    if checkpoint_every is not None and not 0 <= checkpoint_every < math.inf:
        raise ValueError(f"checkpoint_every must be finite and >= 0, "
                         f"got {checkpoint_every!r}")


def run(
    scheme: Optional[Scheme] = None,
    scenario: Optional[Scenario] = None,
    *,
    observe: Union[None, bool, Telemetry] = None,
    validate: Union[None, bool, str, RunAuditor] = None,
    checkpoint_every: Optional[float] = None,
    checkpoint_path=None,
    resume: Union[None, str, RunState] = None,
) -> RunResult:
    """Execute ``scheme`` on ``scenario``; returns results when all flows
    finish or the watchdog stops the run (stall, event budget, heap
    exhaustion, ``max_time``).

    ``observe`` opts the run into :mod:`repro.obs` telemetry: ``True``
    builds a default :class:`~repro.obs.Telemetry`, or pass your own
    (e.g. with a larger ring capacity).  The finalized object lands on
    ``result.telemetry``.  When off (the default) every hook site stays
    ``None`` and the run is bit-identical to an unobserved one.

    ``validate`` opts the run into the :mod:`repro.validate` invariant
    auditor: ``True`` audits (violations land on ``result.validation``),
    ``"strict"`` raises :class:`~repro.validate.InvariantViolation` at
    the first broken law, or pass a preconfigured
    :class:`~repro.validate.RunAuditor`.  The auditor only reads state,
    so a validated run is bit-identical to a bare one.

    ``checkpoint_every`` + ``checkpoint_path`` write a
    :mod:`repro.resilience` snapshot of the whole run every that many
    *simulated* seconds (atomic replace — the file always holds the
    newest complete snapshot; ``0`` snapshots at every drain slice).
    :func:`check_checkpointing` refuses any other pairing.  Snapshotting
    only reads state, so a checkpointed run stays bit-identical to an
    uncheckpointed one.

    ``resume`` restores such a snapshot (a path or a loaded
    :class:`RunState`) and finishes the run from
    where it stopped; the result is bit-identical to a run that never
    stopped.  ``scheme``/``scenario`` may be omitted when resuming —
    when given, their names are checked against the checkpoint.
    ``observe``/``validate`` travel inside the snapshot and must not be
    re-passed.
    """
    check_checkpointing(checkpoint_every, checkpoint_path)
    if resume is not None:
        from ..resilience.checkpoint import CheckpointError, load_checkpoint
        if observe not in (None, False) or validate not in (None, False):
            raise ValueError(
                "observe/validate are baked into the checkpoint; "
                "do not pass them together with resume=")
        state = resume if isinstance(resume, RunState) \
            else load_checkpoint(resume)
        if scheme is not None and scheme.name != state.scheme_name:
            raise CheckpointError(
                f"checkpoint was taken for scheme {state.scheme_name!r}, "
                f"cannot resume it as {scheme.name!r}")
        if scenario is not None and scenario.name != state.scenario_name:
            raise CheckpointError(
                f"checkpoint was taken for scenario {state.scenario_name!r}, "
                f"cannot resume it as {scenario.name!r}")
        if state.auditor is not None:
            # certify the restored engine before trusting it with the
            # rest of the run
            state.auditor.on_restore()
    elif scheme is None or scenario is None:
        raise TypeError("run() needs scheme and scenario unless resume= "
                        "restores them from a checkpoint")
    else:
        state = _assemble(scheme, scenario, observe=observe,
                          validate=validate)
    # drain and harvest are shared by the fresh and resumed paths —
    # which is exactly why a resumed run cannot diverge from a
    # straight-through one after the restore point
    health = _drain(state, checkpoint_every, checkpoint_path)
    return _harvest(state, health)


def _assemble(
    scheme: Scheme,
    scenario: Scenario,
    *,
    observe: Union[None, bool, Telemetry] = None,
    validate: Union[None, bool, str, RunAuditor] = None,
) -> RunState:
    """Lifecycle step 1: build everything a run is before its first
    event — fabric, faults, flow source, telemetry, transport context,
    auditor, the start chain — and return it as a :class:`RunState`."""
    telemetry = _resolve_observe(observe)
    auditor = _resolve_validate(validate)
    hybrid_ctl: Optional[HybridController] = None
    if scenario.hybrid is not None:
        # wrap the scheme: large flows are intercepted at start_flow and
        # advanced analytically; everything else passes straight through
        # to the packet model.  hybrid=None skips the wrapper entirely,
        # keeping the bare path bit-identical.
        from ..sim.hybrid import HybridController
        hybrid_ctl = HybridController(scheme, scenario.hybrid)
        scheme = hybrid_ctl
    topo = scenario.build_topology()
    scheme.configure_network(topo.network)
    faults: Optional[ActiveFaults] = None
    if scenario.faults is not None:
        faults = scenario.faults.apply(topo.network, topo.sim)
        if hybrid_ctl is not None:
            # fault transitions are congestion epochs: bank abstract
            # progress, then let the contended-port sweep demote flows
            # crossing the chained/downed link
            for injector in faults.link_injectors:
                injector.transition_hook = chain(
                    injector.transition_hook, hybrid_ctl.on_fault_transition)
    flow_source = scenario.build_flows(topo)
    if isinstance(flow_source, FlowStream):
        stream, flows = flow_source, []
        total_flows = stream.n_flows
    else:
        stream, flows = None, flow_source
        total_flows = len(flows)
    on_complete = None
    if telemetry is not None:
        telemetry.attach(topo.sim, topo.network, faults)
        on_complete = telemetry.on_flow_complete
    ctx = TransportContext(topo.sim, topo.network, scenario.config,
                           on_complete=on_complete)
    ctx.telemetry = telemetry
    if auditor is not None:
        auditor.attach(topo.sim, topo.network, ctx)

    # One chain for the whole start schedule instead of one heap event
    # per flow: the chain reserves its seq block here, where a loop of
    # schedule_at calls would have claimed the same seqs, so firing
    # order is unchanged while the heap holds a single entry.  A
    # FlowStream is pulled one look-ahead flow at a time under the same
    # (time, seq) keys, so the start schedule never materializes.
    if telemetry is None:
        start_fn, extra = scheme.start_flow, (ctx,)
    else:
        start_fn = functools.partial(_observed_start, scheme)
        extra = (ctx, telemetry)
    if stream is not None:
        starts = _FlowStarts(stream, flows, ctx.table, start_fn, extra)
    else:
        for flow in flows:
            ctx.table.add(flow)
        starts = [(flow.start_time, start_fn, (flow,) + extra)
                  for flow in flows]
    topo.sim.schedule_chain(starts, count=total_flows)

    return RunState(
        scheme_name=scheme.name,
        scenario_name=scenario.name,
        topo=topo, ctx=ctx, flows=flows, faults=faults,
        telemetry=telemetry, auditor=auditor,
        max_time=scenario.max_time,
        event_budget=scenario.event_budget,
        max_rto=getattr(scenario.config, "max_rto", 0.25),
        total_flows=total_flows,
    )


def _harvest(state: RunState, health: RunHealth) -> RunResult:
    """Lifecycle step 3: read a drained run's books — engine counters
    into ``health``, FCTs and live endpoints into the run's
    :class:`FlowTable` — finalize telemetry and auditor, build the
    :class:`RunResult`."""
    topo, ctx, flows = state.topo, state.ctx, state.flows
    telemetry, auditor = state.telemetry, state.auditor
    sim = topo.sim
    health.completed = len(ctx.completed)
    health.events_run = sim.events_run
    health.sim_time = sim.now
    health.live_pending = sim.live_pending
    health.peak_pending = sim.peak_pending
    table = ctx.table
    table.harvest(flows, topo.network)
    health.retransmits_total = sum(table.retransmits)
    health.rtos_total = sum(table.rtos)
    if telemetry is not None:
        telemetry.finalize(topo.network, table)
    validation = auditor.finalize() if auditor is not None else None

    stats = FctStats.from_flows(flows)
    return RunResult(
        scheme_name=state.scheme_name,
        scenario_name=state.scenario_name,
        flows=flows,
        stats=stats,
        table=table,
        topology=topo,
        ctx=ctx,
        wall_events=sim.events_run,
        health=health,
        telemetry=telemetry,
        validation=validation,
    )


def _slice_len(max_time: float) -> float:
    """Drain in slices so a run can stop as soon as everything
    completes (RTO timers would otherwise keep the heap warm until
    ``max_time``)."""
    return max(max_time / 200.0, 1e-4)


@contextlib.contextmanager
def _gc_held() -> Iterator[None]:
    """Hold GC off across a whole drain, not per slice: the nested
    ``Simulator.run()`` guard sees GC already disabled and leaves it
    alone, so the gen-0 pool isn't collected at every slice boundary.
    The hot path creates no reference cycles, so deferring collection
    to the end of the drain is safe."""
    gc_was_enabled = gc.isenabled()
    if gc_was_enabled:
        gc.disable()
    try:
        yield
    finally:
        if gc_was_enabled:
            gc.enable()


def _slice(state: RunState, until: float) -> Optional[str]:
    """Lifecycle step 2, one slice of it: run the simulator to
    ``until`` inside the event budget, then do what every slice ends
    with — profile sample, auditor pass — and say whether the run
    can go on: ``"budget"`` (event budget spent), ``"dead"`` (event
    heap exhausted: nothing can ever happen again, so idling through
    empty slices until ``max_time`` is pointless) or ``None``."""
    sim, telemetry = state.sim, state.telemetry
    budget = state.event_budget
    max_events = None
    if budget is not None:
        max_events = budget - sim.events_run
        if max_events <= 0:
            return "budget"
    if telemetry is None:
        sim.run(until=until, max_events=max_events)
    else:
        wall_start = _time.perf_counter()
        executed = sim.run(until=until, max_events=max_events)
        telemetry.record_slice(until, executed,
                               _time.perf_counter() - wall_start)
    if state.auditor is not None:
        state.auditor.on_slice()
    if budget is not None and sim.events_run >= budget:
        return "budget"
    if sim.peek_time() is None:
        return "dead"
    return None


def _drain(state: RunState, checkpoint_every: Optional[float] = None,
           checkpoint_path=None) -> RunHealth:
    """Drain the simulator in slices under the run-health watchdog.

    The loop's position lives on ``state`` (slice clock, watchdog
    progress signature, checkpoint cadence), so a snapshot taken at any
    slice boundary resumes mid-loop with nothing lost.  Checkpoints are
    written at the *end* of an iteration — after the budget, heap and
    watchdog checks — so a restored run re-enters cleanly at the top of
    the next iteration.
    """
    sim, ctx, flows = state.sim, state.ctx, state.flows
    faults, network = state.faults, state.topo.network
    # total_flows is the run's target: len(flows) for a materialized
    # list, the stream's declared total for a streamed run (where
    # ``flows`` only holds what has been pulled so far)
    target = state.total_flows
    health = RunHealth(n_flows=target)
    if faults is not None:
        health.fault_windows = faults.describe_windows()

    slice_len = _slice_len(state.max_time)
    max_rto = state.max_rto
    # The watchdog never cries stall before the transport had a chance
    # to recover: at least STALL_SLICES quiet slices AND a few backed-
    # off RTOs' worth of quiet time.
    stall_window = max(STALL_SLICES * slice_len, 4.0 * max_rto)
    grace = 2.0 * max_rto
    checkpointing = checkpoint_every is not None

    heap_empty = False
    watchdog_tripped = False
    with _gc_held():
        while len(ctx.completed) < target and state.t < state.max_time:
            # clamp the final slice: ``t`` stepping past ``max_time``
            # would let the run simulate (and bill) up to one slice
            # beyond the scenario's stated horizon
            state.t = min(state.t + slice_len, state.max_time)
            t = state.t
            stop = _slice(state, t)
            if stop is not None:
                health.event_budget_exceeded = stop == "budget"
                heap_empty = stop == "dead"
                break
            signature = _progress_signature(ctx, network)
            if signature != state.last_signature:
                state.last_signature = signature
                state.last_progress_t = t
            elif (t - state.last_progress_t >= stall_window
                  and (faults is None
                       or not faults.any_active_or_recent(sim.now, grace))
                  and any(f.start_time <= sim.now and not f.completed
                          for f in flows)):
                # a quiet fabric is only a stall if some *started* flow
                # is stuck — waiting for a sparse arrival schedule is
                # not
                watchdog_tripped = True
                break
            if checkpointing and t - state.last_checkpoint_t \
                    >= checkpoint_every * (1.0 - 1e-12):
                state.last_checkpoint_t = t
                state.checkpoints_taken += 1
                save_checkpoint(state, checkpoint_path)

    incomplete = health.n_flows - len(ctx.completed)
    if incomplete > 0 and not health.event_budget_exceeded:
        quiet_for = state.t - state.last_progress_t
        if heap_empty:
            health.stalled = True
            health.stall_time = sim.now
            health.stall_reason = (
                f"event heap empty with {incomplete} flow(s) incomplete")
        elif watchdog_tripped or (
                quiet_for >= stall_window
                and any(f.start_time <= sim.now and not f.completed
                        for f in flows)):
            health.stalled = True
            health.stall_time = sim.now
            dead = faults.down_links() if faults is not None else []
            health.dead_links = dead
            if faults is not None:
                health.faults_active_at_stall = faults.active_faults()
            if dead:
                health.stall_reason = (
                    f"no progress for {quiet_for:.6g}s; "
                    f"link(s) down: {', '.join(dead)}")
            elif health.faults_active_at_stall:
                health.stall_reason = (
                    f"no progress for {quiet_for:.6g}s; active faults: "
                    f"{'; '.join(health.faults_active_at_stall)}")
            else:
                health.stall_reason = (
                    f"no progress for {quiet_for:.6g}s; no faults active; "
                    f"{sim.live_pending} live event(s) pending")
        else:
            health.stall_reason = "max_time reached while still progressing"

    if faults is not None:
        health.fault_drops = faults.pkts_dropped
    return health


def two_pass(scenario: Scenario,
             *fill_factors: float) -> Tuple[RunResult, ...]:
    """The hypothetical-DCTCP construction (§2.3).

    Pass one runs default DCTCP recording each flow's maximum window;
    pass two replays the identical scenario with the oracle gap filler,
    once per fill factor (default: the one 1.0x pass).  Returns
    ``(baseline_result, hypothetical_result, ...)``.
    """
    from ..core.hypothetical import HypotheticalDctcp, MwRecordingDctcp
    recorder = MwRecordingDctcp()
    baseline = run(recorder, scenario)
    return (baseline,) + tuple(
        run(HypotheticalDctcp(recorder.mw_table, factor), scenario)
        for factor in fill_factors or (1.0,))


def format_table(rows: List[dict], columns: Optional[List[str]] = None) -> str:
    """Plain-text table used by the benchmark harness output."""
    if not rows:
        return "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())
    widths = {c: len(c) for c in columns}
    rendered: List[List[str]] = []
    for row in rows:
        line = []
        for c in columns:
            value = row.get(c, "")
            if isinstance(value, float):
                text = f"{value:.3f}"
            else:
                text = str(value)
            widths[c] = max(widths[c], len(text))
            line.append(text)
        rendered.append(line)
    header = "  ".join(c.ljust(widths[c]) for c in columns)
    sep = "  ".join("-" * widths[c] for c in columns)
    body = "\n".join(
        "  ".join(cell.ljust(widths[c]) for cell, c in zip(line, columns))
        for line in rendered
    )
    return f"{header}\n{sep}\n{body}"
