"""Sharded run supervisor: one process per shard, merged like a grid.

:func:`run_sharded` is the space-parallel sibling of
:func:`repro.experiments.parallel.run_grid`: it plans the partition
(:func:`repro.sim.shard.plan_shards`), wires a full mesh of
``multiprocessing`` pipes between the shards (the data plane, which
stays here), and hands one :class:`ShardWorker` closure per shard to
:func:`repro.experiments.workers.run_forked` — the same primitive the
grids use, with every shard in flight at once, one deadline and
fail-fast, so a dead shard takes its peers down instead of leaving them
blocked on a mesh pipe.  The returned :class:`ShardSummary` objects are
merged into the same :class:`~repro.experiments.parallel.RunSummary`
shape every sweep consumer already reads.

The merge also closes the global conservation law the per-shard books
cannot see: for every ordered shard pair (A, B), the packets/bytes A
ledgered into its outbox for B must equal what B ledgered out of its
inbox from A — exactly, not approximately.  A mismatch is recorded as a
``shard-handoff-conservation`` violation on the combined validation
report (or raised outright when the run is not validated, since nobody
would otherwise see it).

``n_shards == 1`` runs the worker in-process — no fork, no pipes — and
is the bit-identity anchor: its per-flow FCTs must equal the plain
serial runner's.  On platforms without ``fork``, multi-shard runs raise
instead of silently degrading (a one-shard "sharded" run would report
misleading scaling numbers).
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..metrics.fct import FctStats
from ..obs.telemetry import TelemetrySummary
from ..sim.shard import ShardBoundary, ShardPlan, check_shardable, plan_shards
from ..transport.base import Flow, Scheme
from ..validate import ValidationReport
from ..validate.report import Violation
from . import runner, workers
from .parallel import RunSummary
from .runner import RunHealth, Scenario
from .workers import WorkerError


class ShardError(WorkerError):
    """A shard worker failed; names the shard on top of
    :class:`~repro.experiments.workers.WorkerError`'s ``cause`` and
    ``worker_traceback``.  Pickles via :meth:`__reduce__`."""

    def __init__(self, shard_id: int, cause: str,
                 worker_traceback: str) -> None:
        self.shard_id = shard_id
        super().__init__(f"shard {shard_id} failed", cause, worker_traceback)

    def __reduce__(self):
        return (type(self), (self.shard_id, self.cause,
                             self.worker_traceback))


@dataclass
class ShardSummary:
    """Everything a finished shard sends back to the supervisor.

    Plain data only — this crosses a process boundary by pickle.
    ``fcts`` holds finish times for flows whose *receiver* is local
    (completion is receiver-side, so each flow appears in exactly one
    shard's summary); ``health`` is the shard's own books — flows
    started here, completions, engine counters, and retransmit counters
    of local-host endpoints only, so the per-shard sums partition the
    serial totals.
    """

    shard_id: int
    outcome: str  # "done" | "budget" | "dead" | "horizon"
    rounds: int
    completed_target: int
    fcts: Dict[int, float]
    health: RunHealth
    ledger: dict
    telemetry: Optional[TelemetrySummary] = None
    validation: Optional[ValidationReport] = None


class ShardWorker:
    """One shard's whole life.  A shard is a run with boundary stubs:
    it assembles, slices and harvests through the serial runner's own
    steps (``runner._assemble`` / ``_slice`` / ``_harvest``, told which
    hosts are local) and adds a :class:`~repro.sim.shard.ShardBoundary`
    on the assembled fabric and the window exchange between slices.

    Constructed (in the child process) with the shard id, the plan, the
    scheme/scenario and a ``{peer shard id: Connection}`` map; ``run()``
    returns the picklable :class:`ShardSummary` the supervisor merges.
    """

    # A window exchange should take microseconds; a peer silent this
    # long has died (the supervisor also watches the result pipes).
    RECV_TIMEOUT = 300.0

    def __init__(self, shard_id: int, plan: ShardPlan, scheme, scenario,
                 conns: Dict[int, object], *,
                 observe: bool = False, validate: object = False) -> None:
        self.shard_id = shard_id
        self.plan = plan
        self.scheme = scheme
        self.scenario = scenario
        self.conns = conns
        self.observe = observe
        self.validate = validate
        self.rounds = 0

    def run(self) -> ShardSummary:
        me = self.shard_id
        local_hosts = frozenset(self.plan.hosts_of(me))
        state = runner._assemble(self.scheme, self.scenario,
                                 observe=self.observe,
                                 validate=self.validate,
                                 local_hosts=local_hosts)
        net = state.topo.network
        check_shardable(self.scenario, net)
        # completion is detected at the receiver, so a flow is *this*
        # shard's to finish exactly when its destination is local
        target = sum(1 for f in state.flows if f.dst in local_hosts)
        boundary = ShardBoundary(net, self.plan, me)
        outcome = self._run_windows(state, boundary, target)
        result = runner._harvest(state, RunHealth(n_flows=len(state.flows)),
                                 local_hosts)
        return ShardSummary(
            shard_id=me,
            outcome=outcome,
            rounds=self.rounds,
            completed_target=target,
            fcts={f.flow_id: f.finish_time for f in state.flows
                  if f.completed and f.dst in local_hosts},
            health=result.health,
            ledger=boundary.ledger.digest(),
            telemetry=(result.telemetry.summary()
                       if result.telemetry is not None else None),
            validation=result.validation,
        )

    def _run_windows(self, state, boundary: ShardBoundary,
                     target: int) -> str:
        """The conservative synchronization loop (``repro.sim.shard``
        module docstring); returns the stop outcome.

        Exchange is pairwise over the full mesh in sorted-pair order
        (the lower shard id of each pair sends first), which is
        deadlock-free for blocking pipes; every termination predicate
        is computed from exchanged values only, so all shards leave the
        loop in the same round.  A worker with no peers runs the same
        loop on its own values alone — which makes one shard the
        bit-identity anchor against the serial drain.
        """
        me = self.shard_id
        sim, ctx = state.sim, state.ctx
        budget = state.event_budget
        max_time = state.max_time
        lookahead = self.plan.lookahead
        conns = self.conns
        peers = sorted(conns)
        outboxes = boundary.outboxes
        inf = float("inf")
        T = 0.0
        with runner._gc_held():
            while True:
                runner._slice(state, T)
                self.rounds += 1

                # own null-message signals — raw floats, so every shard
                # folds the identical numbers into ``base``
                peek = sim.peek_time()
                min_arrival = inf
                for batch in outboxes.values():
                    for entry in batch:
                        if entry[0] < min_arrival:
                            min_arrival = entry[0]
                my_arrival = min_arrival if min_arrival < inf else None
                done_local = len(ctx.completed) >= target
                my_events = sim.events_run

                base = inf if peek is None else peek
                if min_arrival < base:
                    base = min_arrival
                all_done = done_local
                total_events = my_events
                imports_round: List[Tuple[int, list]] = []
                for k in peers:
                    conn = conns[k]
                    message = (outboxes[k], peek, my_arrival,
                               done_local, my_events)
                    if me < k:
                        conn.send(message)
                        outboxes[k].clear()
                        theirs = self._recv(conn, k)
                    else:
                        theirs = self._recv(conn, k)
                        conn.send(message)
                        outboxes[k].clear()
                    imports, peer_peek, peer_arrival, peer_done, \
                        peer_events = theirs
                    imports_round.append((k, imports))
                    if peer_peek is not None and peer_peek < base:
                        base = peer_peek
                    if peer_arrival is not None and peer_arrival < base:
                        base = peer_arrival
                    all_done = all_done and peer_done
                    total_events += peer_events

                boundary.inject(imports_round)

                # symmetric termination — exchanged data only, in the
                # serial drain's order
                if budget is not None and total_events >= budget:
                    return "budget"
                if all_done:
                    return "done"
                if base == inf:
                    return "dead"
                if T >= max_time:
                    return "horizon"
                T_next = base + lookahead
                if not peers:
                    # nobody to wait for: never advance by less than a
                    # serial drain slice, or a lookahead of one
                    # propagation delay (zero for a single shard) would
                    # turn the run into step-by-step execution
                    T_next = max(T_next, T + runner._slice_len(max_time))
                T = min(T_next, max_time)

    def _recv(self, conn, peer: int):
        if not conn.poll(self.RECV_TIMEOUT):
            raise RuntimeError(
                f"shard {self.shard_id}: no window message from shard "
                f"{peer} after {self.RECV_TIMEOUT:.0f}s (peer crashed?)")
        try:
            return conn.recv()
        except EOFError:
            raise RuntimeError(
                f"shard {self.shard_id}: pipe to shard {peer} closed "
                f"mid-run") from None


@dataclass
class DistributedResult:
    """What a sharded run hands back.

    ``summary`` is the grid-shaped digest (scheme, scenario,
    ``params={"shards": n}``, merged stats/health/telemetry/validation);
    ``flows`` is the full deterministic flow list with finish times
    applied from the owning shards; ``shards`` keeps every per-shard
    summary for anyone who wants the partition-level story.
    """

    summary: RunSummary
    flows: List[Flow]
    stats: FctStats
    health: RunHealth
    shards: List[ShardSummary]
    plan: ShardPlan
    conservation_ok: bool


def run_sharded(
    scheme: Scheme,
    scenario: Scenario,
    n_shards: int,
    *,
    observe: bool = False,
    validate: object = False,
    timeout: float = 900.0,
) -> DistributedResult:
    """Run ``scenario`` space-partitioned across ``n_shards`` processes.

    Deterministic-merge contract: per-flow FCTs are bit-identical to the
    serial runner's on the same scenario, for any shard count the
    topology admits (see ``docs/sharding.md``).  ``observe``/``validate``
    mirror the runner's flags; each worker carries its own telemetry /
    auditor and only the picklable digests cross the result pipes.
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    # Reference build: yields the plan, the parent's flow list for the
    # merge, and an early home for the unsupported-combo checks.
    ref = scenario.build_topology()
    scheme.configure_network(ref.network)
    check_shardable(scenario, ref.network)
    plan = plan_shards(ref, n_shards)
    flow_source = scenario.build_flows(ref)
    flows = (flow_source if isinstance(flow_source, list)
             else flow_source.materialize())

    if n_shards == 1:
        worker = ShardWorker(0, plan, scheme, scenario, {},
                             observe=observe, validate=validate)
        shard_summaries = [worker.run()]
    else:
        if not workers.fork_available():
            raise RuntimeError(
                "sharded execution requires the 'fork' start method; "
                f"this platform offers "
                f"{multiprocessing.get_start_method()!r} — run with "
                "--shards 1 or use the serial runner")
        shard_summaries = _run_forked(plan, scheme, scenario,
                                      observe, validate, timeout)

    return _merge(scheme, scenario, plan, shard_summaries, flows,
                  observe=observe, validate=validate)


def _run_forked(plan: ShardPlan, scheme: Scheme, scenario: Scenario,
                observe: bool, validate: object,
                timeout: float) -> List[ShardSummary]:
    n_shards = plan.n_shards
    # Full mesh of duplex window pipes, keyed (i, j) with i < j, created
    # before the forks so every child inherits every end it needs.
    mesh: Dict[Tuple[int, int], tuple] = {}
    for i in range(n_shards):
        for j in range(i + 1, n_shards):
            mesh[(i, j)] = multiprocessing.Pipe(True)

    def shard_fn(shard_id: int):
        def run_shard() -> ShardSummary:
            conns = {}
            for (i, j), (end_i, end_j) in mesh.items():
                if shard_id == i:
                    conns[j] = end_i
                elif shard_id == j:
                    conns[i] = end_j
            return ShardWorker(shard_id, plan, scheme, scenario, conns,
                               observe=observe, validate=validate).run()
        return run_shard

    try:
        outcomes = workers.run_forked(
            [shard_fn(i) for i in range(n_shards)], slots=n_shards,
            timeout=timeout, fail_fast=True)
    finally:
        for ends in mesh.values():
            for end in ends:
                end.close()
    for shard_id, outcome in enumerate(outcomes):
        if outcome is not None and not outcome.ok:
            raise ShardError(shard_id, outcome.cause,
                             outcome.worker_traceback)
    return [outcome.value for outcome in outcomes]


def _merge(scheme: Scheme, scenario: Scenario, plan: ShardPlan,
           shard_summaries: List[ShardSummary], flows: List[Flow],
           *, observe: bool, validate: object) -> DistributedResult:
    by_id = {f.flow_id: f for f in flows}
    for shard in shard_summaries:
        for flow_id, finish_time in shard.fcts.items():
            by_id[flow_id].finish_time = finish_time
    stats = FctStats.from_flows(flows)

    health = RunHealth(n_flows=len(flows))
    for shard in shard_summaries:
        part = shard.health
        # completion is receiver-side, so each flow is counted by
        # exactly one shard and the sum is the global completion count
        health.completed += part.completed
        health.events_run += part.events_run
        health.sim_time = max(health.sim_time, part.sim_time)
        health.peak_pending = max(health.peak_pending, part.peak_pending)
        health.live_pending += part.live_pending
        health.retransmits_total += part.retransmits_total
        health.rtos_total += part.rtos_total
        for flow_id, rtx in part.retransmits_by_flow.items():
            health.retransmits_by_flow[flow_id] = (
                health.retransmits_by_flow.get(flow_id, 0) + rtx)
    health.event_budget_exceeded = any(s.outcome == "budget"
                                       for s in shard_summaries)
    if (any(s.outcome == "dead" for s in shard_summaries)
            and health.completed < health.n_flows):
        health.stalled = True
        health.stall_time = health.sim_time
        health.stall_reason = (
            f"all shard heaps empty with "
            f"{health.n_flows - health.completed} flow(s) incomplete")

    # global handoff conservation: A.exported_to[B] == B.imported_from[A]
    mismatches = []
    pairs_checked = 0
    for a in shard_summaries:
        for b_id, sent in sorted(a.ledger["exported_to"].items()):
            pairs_checked += 1
            received = shard_summaries[b_id].ledger["imported_from"].get(
                a.shard_id, [0, 0])
            if list(sent) != list(received):
                mismatches.append((a.shard_id, b_id, tuple(sent),
                                   tuple(received)))
    conservation_ok = not mismatches

    validation = None
    if validate:
        validation = ValidationReport.combine(
            [s.validation for s in shard_summaries])
        validation.strict = (validate == "strict")
        validation.checks_run += pairs_checked
        for a_id, b_id, sent, received in mismatches:
            validation.record(Violation(
                law="shard-handoff-conservation",
                subject=f"shard{a_id}->shard{b_id}",
                sim_time=health.sim_time,
                message=(f"shard {a_id} exported {sent[0]} pkts / "
                         f"{sent[1]} bytes to shard {b_id}, which "
                         f"imported {received[0]} pkts / "
                         f"{received[1]} bytes"),
                details={"exported": list(sent),
                         "imported": list(received)},
            ))
    elif mismatches:
        a_id, b_id, sent, received = mismatches[0]
        raise RuntimeError(
            f"cross-shard handoff conservation violated "
            f"({len(mismatches)} pair(s)); first: shard {a_id} exported "
            f"{sent} to shard {b_id}, which imported {received}")

    telemetry = None
    if observe:
        parts = [s.telemetry for s in shard_summaries
                 if s.telemetry is not None]
        telemetry = TelemetrySummary.combine(parts) if parts else None

    summary = RunSummary(
        scheme=scheme.name,
        scenario=scenario.name,
        params={"shards": plan.n_shards},
        stats=stats,
        health=health,
        completed=health.completed,
        n_flows=len(flows),
        wall_events=health.events_run,
        telemetry=telemetry,
        validation=validation,
    )
    return DistributedResult(
        summary=summary,
        flows=flows,
        stats=stats,
        health=health,
        shards=shard_summaries,
        plan=plan,
        conservation_ok=conservation_ok,
    )
