"""Hybrid flow-level / packet-level fast path.

Long-lived bulk flows dominate event counts but carry almost no
scheduling information once they reach steady state: their throughput is
just their max-min fair share of the path.  This module advances such
flows *analytically* — no packets, no per-MTU events — while short or
contended flows keep the full packet model.  The decomposition is the
one m4 ("A Learned Flow-level Network Simulator") learns and DCSim
motivates at datacenter scale, done here exactly:

* **Classification at admission.**  :meth:`HybridController.start_flow`
  admits a flow to the *abstract* set when it is large enough
  (``size_threshold``) and its deterministically resolved port path is
  currently uncontended.  Everything else goes to the wrapped packet
  scheme untouched.
* **Congestion epochs.**  Abstract flows advance at *epochs* — abstract
  arrival/departure, packet-flow arrival/departure on a shared port,
  fault transitions, and a bounded re-measure interval while packet
  traffic coexists — via a single re-armed heap entry
  (:meth:`HybridController._set_epoch`).  Each epoch
  banks ``rate * dt`` of progress per flow, re-measures packet
  occupancy through the shared :class:`~repro.sim.network.LinkLedger`,
  and re-runs progressive waterfilling for new max-min rates.
* **Demotion.**  An abstract flow whose path becomes contended (shares
  a bottleneck port with a packet flow, a PFC-paused priority, or a
  fault chain) is demoted: its undelivered remainder restarts as a
  packet-mode *tail flow* under the same flow id, and its eventual
  finish time is copied back to the original Flow object so FCT
  statistics see one flow with the true completion time.

The pure packet model stays the equivalence oracle: with the controller
absent (``hybrid=None``) the run is bit-identical to the plain tree,
and hybrid runs must match packet-mode FCT distributions within
the gated tolerance (``repro.validate.equivalence``).  See
``docs/hybrid.md`` for the accuracy envelope — in particular when *not*
to trust hybrid numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .engine import Event, Simulator
from .link import Port
from .network import LinkLedger, Network
from .packet import HEADER_BYTES

# An abstract flow with less than half a wire byte outstanding is done;
# epoch events are scheduled exactly at predicted completion instants,
# so the residual is float rounding, never real payload.
_DONE_BYTES = 0.5


@dataclass
class HybridConfig:
    """Knobs for the hybrid fast path (``Scenario.hybrid=None`` is
    "off": no controller is built at all)."""

    # admission: flows at least this big are abstract candidates
    size_threshold: int = 1_000_000
    # upper bound on the inter-epoch interval while packet-mode flows
    # coexist (stands in for per-ACK cwnd-inflection triggers, which
    # would put a hook on the packet hot path)
    max_epoch: float = 0.005

    def __post_init__(self) -> None:
        # an epoch re-armed at ``now`` would never let time advance
        if not self.max_epoch > 0.0 or self.size_threshold < 0:
            raise ValueError(
                f"hybrid needs max_epoch > 0 and size_threshold >= 0, got "
                f"{self.max_epoch!r} and {self.size_threshold!r}")


def waterfill(paths: Sequence[Sequence[int]],
              capacities: Sequence[float],
              ) -> Tuple[List[float], List[Optional[int]]]:
    """Progressive max-min waterfilling.

    ``paths[i]`` lists the port indices flow ``i`` traverses;
    ``capacities[j]`` is port ``j``'s available rate.  Returns
    ``(rates, bottlenecks)`` where ``bottlenecks[i]`` is the saturated
    port index that froze flow ``i`` (flows with empty paths stay at
    rate 0 with bottleneck None; admission never produces them).

    Pure function over plain data so the hypothesis property suite can
    hammer it directly: the result is feasible (no port over capacity)
    and max-min fair (every flow's rate is maximal among the flows
    crossing its bottleneck).
    """
    n = len(paths)
    rates = [0.0] * n
    bottlenecks: List[Optional[int]] = [None] * n
    # per-port active-flow counts, insertion-ordered for determinism
    counts: Dict[int, int] = {}
    for path in paths:
        for j in path:
            counts[j] = counts.get(j, 0) + 1
    remaining = list(capacities)
    active = [bool(path) for path in paths]
    n_active = sum(active)
    while n_active:
        # the tightest port sets this round's uniform increment
        increment = None
        for j, c in counts.items():
            share = remaining[j] / c
            if increment is None or share < increment:
                increment = share
        if increment is None:  # no active flow crosses any port
            break
        if increment < 0.0:
            increment = 0.0
        for i in range(n):
            if active[i]:
                rates[i] += increment
                for j in paths[i]:
                    remaining[j] -= increment
        # freeze every flow crossing a saturated port
        saturated = {j for j, c in counts.items()
                     if remaining[j] <= 1e-9 * (capacities[j] + 1.0)}
        if not saturated:  # float dust: force the tightest port closed
            tightest = min(counts, key=lambda j: remaining[j] / counts[j])
            saturated = {tightest}
        for i in range(n):
            if not active[i]:
                continue
            hit = None
            for j in paths[i]:
                if j in saturated:
                    hit = j
                    break
            if hit is not None:
                active[i] = False
                n_active -= 1
                bottlenecks[i] = hit
                for j in paths[i]:
                    left = counts.get(j)
                    if left is not None:
                        if left > 1:
                            counts[j] = left - 1
                        else:
                            del counts[j]
    return rates, bottlenecks


class AbstractFlow:
    """Book-keeping for one analytically advanced flow."""

    __slots__ = ("flow", "path", "wire_total", "wire_remaining",
                 "rate", "bottleneck", "last_update")

    def __init__(self, flow, path: List[Port], wire_total: float,
                 now: float) -> None:
        self.flow = flow
        self.path = path
        self.wire_total = wire_total          # payload + per-packet headers
        self.wire_remaining = wire_total
        self.rate = 0.0                       # bytes/sec, set by waterfill
        self.bottleneck: Optional[Port] = None
        self.last_update = now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<AbstractFlow {self.flow.flow_id} "
                f"remaining={self.wire_remaining:.0f}B "
                f"rate={self.rate * 8e-9:.3f}Gbps>")


class HybridController:
    """Scheme wrapper that owns the abstract flow set.

    Wraps any :class:`~repro.transport.base.Scheme`; the runner
    substitutes it when a scenario carries an enabled
    :class:`HybridConfig`.  Every flow start routes through
    :meth:`start_flow`, which either admits the flow to the abstract
    set or hands it to the wrapped scheme unchanged (tracking its port
    path so sharing checks are exact).  Plain data + bound methods
    throughout: the controller pickles inside checkpoints (it rides
    ``ctx.extra["hybrid"]`` and the engine heap), and a mid-epoch resume
    is bit-identical.
    """

    def __init__(self, scheme, config: HybridConfig) -> None:
        self.scheme = scheme
        self.config = config
        self.sim: Optional[Simulator] = None
        self.network: Optional[Network] = None
        self.ctx = None
        self.ledger = LinkLedger()
        self.abstract: Dict[int, AbstractFlow] = {}
        # the one armed epoch entry, None when no epoch is due
        self.epoch_event: Optional[Event] = None
        # abstraction is only sound under deterministic per-flow
        # routing; any balancer (NDP's spray too) disables it wholesale
        # (bind time)
        self.abstraction_ok = False
        self._packet_paths: Dict[int, List[Port]] = {}
        # demoted-tail flow id -> the original Flow awaiting its FCT
        self._tail_map: Dict[int, object] = {}
        self.packet_active = 0
        self._inner_on_complete = None
        self._in_abstract_complete = False
        self._in_epoch = False
        # ledger counters (wire bytes; the auditor's conservation law)
        self.flows_abstracted = 0
        self.flows_demoted = 0
        self.epochs = 0
        self.offered_wire_bytes = 0.0
        self.delivered_wire_bytes = 0.0
        self.demoted_wire_bytes = 0.0

    # -- Scheme facade -----------------------------------------------------

    @property
    def name(self) -> str:
        return self.scheme.name

    def configure_network(self, network) -> None:
        self.scheme.configure_network(network)

    def start_flow(self, flow, ctx) -> None:
        if self.ctx is not ctx:
            self._bind(ctx)
        af = self._classify(flow)
        if af is not None:
            self._admit(af)
        else:
            self._start_packet(flow)

    # -- wiring ------------------------------------------------------------

    def _bind(self, ctx) -> None:
        self.ctx = ctx
        self.sim = ctx.sim
        self.network = ctx.network
        self.abstraction_ok = all(
            switch.lb is None for switch in self.network.switches)
        # observe every completion: tail-flow finish-time mapping and
        # packet-departure epoch triggers
        self._inner_on_complete = ctx._on_complete
        ctx._on_complete = self._on_any_complete
        ctx.extra["hybrid"] = self

    # -- classification & admission ----------------------------------------

    def _classify(self, flow) -> Optional[AbstractFlow]:
        cfg = self.config
        if not self.abstraction_ok or flow.size < cfg.size_threshold \
                or flow.src == flow.dst:
            return None
        network = self.network
        path = network.resolve_path(flow.flow_id, flow.src, flow.dst)
        ledger = self.ledger
        for port in path:
            if ledger.contended(port):
                return None
        wire_total = float(
            flow.size
            + flow.n_packets(self.ctx.config.mss) * HEADER_BYTES)
        return AbstractFlow(flow, path, wire_total, self.sim.now)

    def _admit(self, af: AbstractFlow) -> None:
        self.abstract[af.flow.flow_id] = af
        self.flows_abstracted += 1
        self.offered_wire_bytes += af.wire_total
        for port in af.path:
            self.ledger.track(port)
        self._epoch()  # arrival is a congestion epoch: recompute now

    def _start_packet(self, flow) -> None:
        if self.abstraction_ok:
            path = self.network.resolve_path(flow.flow_id, flow.src, flow.dst)
            if path:
                self._packet_paths[flow.flow_id] = path
                self.ledger.add_packet_flow(path)
                if self.abstract and any(
                        not set(af.path).isdisjoint(path)
                        for af in self.abstract.values()):
                    # the newcomer shares a bottleneck: demote BEFORE its
                    # first packet flies so it contends with real traffic
                    self._epoch()
        self.packet_active += 1
        self.scheme.start_flow(flow, self.ctx)

    # -- the congestion epoch ----------------------------------------------

    def _epoch(self) -> None:
        """Advance, measure, demote, waterfill, re-arm — one epoch.

        Re-entrancy guard: demotion starts packet tails, whose path
        registration would recursively trigger another epoch; the
        running epoch's own demotion sweep already sees the updated
        ledger, so the nested trigger is simply suppressed.
        """
        if self._in_epoch:
            return
        self._in_epoch = True
        try:
            self._run_epoch()
        finally:
            self._in_epoch = False

    def _run_epoch(self) -> None:
        now = self.sim.now
        self.epochs += 1
        telemetry = self.ctx.telemetry
        if telemetry is not None:
            telemetry.record("hybrid_epoch", now,
                             detail=f"abstract={len(self.abstract)}")
        abstract = self.abstract
        finished: List[AbstractFlow] = []
        for af in abstract.values():
            dt = now - af.last_update
            if dt > 0.0 and af.rate > 0.0:
                delivered = af.rate * dt
                if delivered > af.wire_remaining:
                    delivered = af.wire_remaining
                af.wire_remaining -= delivered
                self.delivered_wire_bytes += delivered
            af.last_update = now
            if af.wire_remaining <= _DONE_BYTES:
                finished.append(af)
        for af in finished:
            del abstract[af.flow.flow_id]
            # bank the float residue so the conservation ledger closes
            self.delivered_wire_bytes += af.wire_remaining
            af.wire_remaining = 0.0
            flow = af.flow
            # last byte still crosses the fabric: completion lands one
            # one-way base delay after the transfer drains
            self.sim.schedule(self.network.base_delay(flow.src, flow.dst),
                              self._complete_abstract, flow)
        self.ledger.measure(now)
        if abstract:
            ledger = self.ledger
            for af in list(abstract.values()):
                for port in af.path:
                    if ledger.contended(port):
                        self._demote(af, now)
                        break
            self._assign_rates()
        self._arm(now)

    def _assign_rates(self) -> None:
        flows = list(self.abstract.values())
        if not flows:
            return
        port_index: Dict[Port, int] = {}
        capacities: List[float] = []
        paths: List[List[int]] = []
        available = self.ledger.available_bps
        for af in flows:
            indices = []
            for port in af.path:
                j = port_index.get(port)
                if j is None:
                    j = port_index[port] = len(capacities)
                    capacities.append(available(port) / 8.0)
                indices.append(j)
            paths.append(indices)
        rates, bottlenecks = waterfill(paths, capacities)
        ports = list(port_index)
        for af, rate, bn in zip(flows, rates, bottlenecks):
            af.rate = rate
            af.bottleneck = ports[bn] if bn is not None else None

    def _set_epoch(self, time: Optional[float]) -> None:
        """Move the single epoch entry to ``time``, or disarm it (None).
        Re-arming leaves a corpse the engine bounds like any other."""
        if self.epoch_event is not None:
            self.epoch_event.cancel()
        self.epoch_event = None if time is None \
            else self.sim.schedule_at(time, self._epoch_due)

    def _epoch_due(self) -> None:
        self.epoch_event = None
        self._epoch()

    def _arm(self, now: float) -> None:
        abstract = self.abstract
        if not abstract:
            self._set_epoch(None)
            return
        next_time = math.inf
        for af in abstract.values():
            if af.rate > 0.0:
                done = now + af.wire_remaining / af.rate
                if done < next_time:
                    next_time = done
        if self.packet_active > 0:
            # coexisting packet traffic: bound measurement staleness
            cap = now + self.config.max_epoch
            if cap < next_time:
                next_time = cap
        self._set_epoch(next_time if next_time != math.inf else None)

    # -- demotion & completion ---------------------------------------------

    def _demote(self, af: AbstractFlow, now: float) -> None:
        """Hand an abstract flow's remainder back to the packet model."""
        flow = af.flow
        del self.abstract[flow.flow_id]
        self.flows_demoted += 1
        self.demoted_wire_bytes += af.wire_remaining
        delivered = af.wire_total - af.wire_remaining
        telemetry = self.ctx.telemetry
        if telemetry is not None:
            telemetry.record("hybrid_demote", now, flow_id=flow.flow_id,
                             detail=f"delivered={delivered:.0f}B")
        if delivered <= _DONE_BYTES:
            # nothing delivered yet: the original flow starts fresh
            af.wire_remaining = 0.0
            self._start_packet(flow)
            return
        payload_left = int(math.ceil(
            af.wire_remaining * (flow.size / af.wire_total)))
        payload_left = min(max(payload_left, 1), flow.size)
        af.wire_remaining = 0.0
        # the tail's counters go into the flow's own table row
        tail = type(flow)(flow_id=flow.flow_id, src=flow.src, dst=flow.dst,
                          size=payload_left, start_time=now, row=flow.row)
        self._tail_map[flow.flow_id] = flow
        self._start_packet(tail)

    def _complete_abstract(self, flow) -> None:
        self._in_abstract_complete = True
        try:
            self.ctx.on_complete(flow)
        finally:
            self._in_abstract_complete = False

    def _on_any_complete(self, flow) -> None:
        inner = self._inner_on_complete
        if inner is not None:
            inner(flow)
        if self._in_abstract_complete:
            return
        # a packet-mode flow finished: release its path refcounts and —
        # since capacity was freed — make the next instant an epoch
        self.packet_active -= 1
        path = self._packet_paths.pop(flow.flow_id, None)
        if path is not None:
            self.ledger.remove_packet_flow(path)
        original = self._tail_map.pop(flow.flow_id, None)
        if original is not None and original is not flow:
            original.finish_time = flow.finish_time
        if self.abstract:
            event = self.epoch_event
            if event is None or event.time > self.sim.now:
                self._set_epoch(self.sim.now)

    # -- fault coupling ----------------------------------------------------

    def on_fault_transition(self, port, is_down: bool) -> None:
        """Chained onto fault injectors: every transition is an epoch.

        The epoch's own demotion sweep handles flows crossing the port
        (a chained port is always :meth:`LinkLedger.contended`), after
        first banking their progress at pre-transition rates.
        """
        if self.sim is None or not self.abstract:
            return  # no flow ever started, or nothing abstract to react
        self._epoch()

    # -- introspection ------------------------------------------------------

    def remaining_wire_bytes(self) -> float:
        return sum(af.wire_remaining for af in self.abstract.values())

    def progress_probe(self, now: float) -> tuple:
        """Monotone progress signature for the run-health watchdog.

        Projects banked progress forward to ``now`` so long analytic
        epochs (hours of simulated transfer, zero heap events between)
        still register as progress every health slice.
        """
        projected = self.delivered_wire_bytes
        for af in self.abstract.values():
            projected += af.rate * (now - af.last_update)
        return (self.epochs, self.flows_demoted, self.packet_active,
                int(projected))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<HybridController {self.scheme.name} "
                f"abstract={len(self.abstract)} demoted={self.flows_demoted} "
                f"epochs={self.epochs}>")
