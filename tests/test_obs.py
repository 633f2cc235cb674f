"""Tests for the unified run telemetry subsystem (repro.obs)."""

import pickle
from collections import Counter

import pytest

from conftest import make_ctx, quick_qcfg
from repro.experiments.parallel import GridTask, run_grid
from repro.experiments.runner import run
from repro.experiments.scenarios import incast_scenario
from repro.faults import FaultPlan, LinkDown
from repro.metrics.flowtable import UNFINISHED
from repro.obs import (
    DROP,
    FAULT_DOWN,
    FAULT_UP,
    FLOW_COMPLETE,
    FLOW_START,
    MARK,
    RETRANSMIT,
    Telemetry,
    TraceEvent,
    chain,
    load_jsonl,
)
from repro.sim.network import QueueConfig
from repro.sim.topology import dumbbell, star
from repro.transport.base import Flow, TransportConfig
from repro.transport.dctcp import Dctcp
from repro.units import gbps, us
from repro.workloads.distributions import WEB_SEARCH


def incast(seed=3, **kwargs):
    params = dict(n_senders=8, n_flows=24, seed=seed)
    params.update(kwargs)
    return incast_scenario("obs-incast", WEB_SEARCH, **params)


def blackout_scenario(max_time=2.0):
    """One large flow through a 10G dumbbell with a mid-flow blackout."""

    def build_topology():
        return dumbbell(rate=gbps(10), prop_delay=us(5), qcfg=quick_qcfg())

    def build_flows(topo):
        return [Flow(0, 0, 1, 300_000, 0.0)]

    plan = FaultPlan([LinkDown("sw0->sw1", 0.0002, 0.002)])
    return Scenario_("obs-fault", build_topology, build_flows,
                     max_time=max_time, faults=plan)


def Scenario_(name, build_topology, build_flows, **kwargs):
    from repro.experiments.runner import Scenario
    kwargs.setdefault("config", TransportConfig(min_rto=1e-3))
    return Scenario(name, build_topology, build_flows, **kwargs)


# -- chain() ---------------------------------------------------------------


def test_chain_identities():
    fn = lambda pkt: None
    assert chain(None, fn) is fn
    assert chain(fn, None) is fn
    assert chain(None, None) is None


def test_chain_calls_in_attach_order():
    calls = []
    chained = chain(lambda x: calls.append(("a", x)),
                    lambda x: calls.append(("b", x)))
    chained(7)
    assert calls == [("a", 7), ("b", 7)]


def test_chain_composes_three():
    calls = []
    fn = None
    for tag in "abc":
        fn = chain(fn, lambda x, tag=tag: calls.append(tag))
    fn(0)
    assert calls == ["a", "b", "c"]


# -- TraceEvent / ring buffer ----------------------------------------------


def test_trace_event_dict_round_trip():
    event = TraceEvent(1.5e-3, DROP, port="leaf0->spine1", flow_id=3,
                       seq=17, priority=2)
    back = TraceEvent.from_dict(event.to_dict())
    for name in TraceEvent.__slots__:
        assert getattr(back, name) == getattr(event, name)


def test_trace_event_omits_defaults():
    assert TraceEvent(0.0, FLOW_START, flow_id=1).to_dict() == {
        "t": 0.0, "kind": FLOW_START, "flow": 1}


def test_ring_buffer_bounds_memory_but_counts_everything():
    telem = Telemetry(capacity=4)
    for i in range(10):
        telem.record(DROP, float(i), flow_id=i)
    assert len(telem) == 4
    assert telem.events_seen == 10
    assert telem.counts[DROP] == 10
    assert [e.flow_id for e in telem.iter_events()] == [6, 7, 8, 9]
    summary = telem.summary()
    assert summary.events_seen == 10
    assert summary.events_kept == 4
    assert "kept 4/10" in summary.describe()


def test_bad_capacity_rejected():
    with pytest.raises(ValueError):
        Telemetry(capacity=0)


def test_telemetry_is_single_run():
    scenario = incast()
    telem = run(Dctcp(), scenario, observe=True).telemetry
    with pytest.raises(RuntimeError):
        run(Dctcp(), incast(), observe=telem)


# -- equivalence: observed runs change nothing -----------------------------


def test_observed_run_is_bit_identical():
    bare = run(Dctcp(), incast())
    observed = run(Dctcp(), incast(), observe=True)
    assert observed.stats == bare.stats
    assert observed.wall_events == bare.wall_events
    assert [f.fct for f in observed.flows] == [f.fct for f in bare.flows]
    assert bare.telemetry is None
    assert observed.telemetry is not None


def test_observe_flag_forms():
    assert run(Dctcp(), incast(), observe=False).telemetry is None
    telem = Telemetry(capacity=128)
    assert run(Dctcp(), incast(), observe=telem).telemetry is telem
    with pytest.raises(TypeError):
        run(Dctcp(), incast(), observe="yes")


# -- summary vs. the simulator's own counters ------------------------------


def test_summary_matches_network_counters():
    result = run(Dctcp(), incast(), observe=True)
    telem = result.telemetry
    summary = telem.summary()
    network = result.topology.network
    assert summary.drops == network.total_drops()
    assert summary.marks == sum(port.mux.stats.marked
                                for port in network.ports)
    assert summary.retransmits == result.health.retransmits_total
    assert summary.rtos == result.health.rtos_total
    assert summary.flows_started == len(result.flows)
    assert summary.flows_completed == result.completed
    # the trace saw every drop/mark the counters saw (no overflow here)
    assert summary.counts.get(DROP, 0) == summary.drops
    assert summary.counts.get(MARK, 0) == summary.marks
    assert summary.events_seen == summary.events_kept


def test_flow_table_harvested():
    result = run(Dctcp(), incast(), observe=True)
    table = result.table
    assert list(table.flow_id) == [f.flow_id for f in result.flows]
    assert UNFINISHED not in table.fct
    assert list(table.fct) == [f.fct for f in result.flows]
    assert sum(table.retransmits) == result.health.retransmits_total
    # per flow, the counters agree with the traced retransmits
    traced = Counter(e.flow_id for e in result.telemetry.iter_events(RETRANSMIT))
    assert {flow_id: n for flow_id, n in zip(table.flow_id, table.retransmits)
            if n} == dict(traced)


def test_profile_feeds_events_per_sec():
    result = run(Dctcp(), incast(), observe=True)
    summary = result.telemetry.summary()
    assert summary.slices == len(result.telemetry.profile) > 0
    assert summary.sim_events == result.wall_events
    assert summary.wall_seconds > 0.0
    assert summary.events_per_sec > 0.0


def test_fault_transitions_traced():
    result = run(Dctcp(), blackout_scenario(), observe=True)
    telem = result.telemetry
    downs = list(telem.iter_events(FAULT_DOWN))
    ups = list(telem.iter_events(FAULT_UP))
    assert len(downs) == len(ups) == 1
    assert downs[0].port == "sw0->sw1"
    assert downs[0].time == pytest.approx(0.0002)
    assert ups[0].time == pytest.approx(0.0022)
    assert result.health.ok
    # under faults, the rollup still agrees with the simulator's counters
    summary = telem.summary()
    assert summary.drops == result.topology.network.total_drops()
    assert summary.retransmits == result.health.retransmits_total > 0
    assert summary.rtos == result.health.rtos_total


def test_flow_lifecycle_traced_in_order():
    result = run(Dctcp(), incast(), observe=True)
    telem = result.telemetry
    starts = list(telem.iter_events(FLOW_START))
    completes = list(telem.iter_events(FLOW_COMPLETE))
    assert len(starts) == len(completes) == len(result.flows)
    times = [e.time for e in telem.iter_events()]
    assert times == sorted(times)  # trace is in simulated-time order


# -- per-event drop visibility on a hand-built topology --------------------


def lossy_star_run(before_attach=None):
    """Two DCTCP flows into one 15 KB-buffer port, telemetry attached by
    hand; ``before_attach(network)`` installs an earlier hook consumer."""
    topo = star(3, rate=gbps(40), prop_delay=us(4),
                qcfg=QueueConfig(buffer_bytes=15_000))
    if before_attach is not None:
        before_attach(topo.network)
    telem = Telemetry().attach(topo.sim, topo.network)
    ctx = make_ctx(topo)
    for flow in (Flow(0, 0, 2, 200_000, 0.0), Flow(1, 1, 2, 200_000, 0.0)):
        Dctcp().start_flow(flow, ctx)
    topo.sim.run(until=2.0)
    return topo.network, telem


def test_drop_events_record_every_drop():
    network, telem = lossy_star_run()
    drops = list(telem.iter_events(DROP))
    assert len(drops) == network.total_drops() > 0
    assert drops[0].port
    assert drops[0].flow_id in (0, 1)


def test_drop_events_by_port_priority_and_flow():
    network, telem = lossy_star_run()
    drops = list(telem.iter_events(DROP))
    assert sum(Counter(e.priority for e in drops).values()) == len(drops)
    by_port = Counter(e.port for e in drops)
    assert sum(by_port.values()) == len(drops)
    assert set(by_port) <= {port.name for port in network.ports}
    per_flow = Counter(e.flow_id for e in drops)
    assert per_flow[0] + per_flow[1] == len(drops)


def test_drop_tracer_and_telemetry_chain():
    """A hand-rolled drop tracer (a plain callable on every drop hook)
    installed first keeps seeing drops once telemetry attaches."""
    seen = []

    def count_drops(network):
        for port in network.ports:
            port.mux.add_drop_hook(seen.append)

    network, telem = lossy_star_run(before_attach=count_drops)
    # chaining: both consumers saw every drop the counters saw
    assert len(seen) == network.total_drops() > 0
    assert telem.counts.get(DROP, 0) == network.total_drops()


# -- JSONL persistence -----------------------------------------------------


def test_jsonl_round_trip(tmp_path):
    result = run(Dctcp(), incast(), observe=True)
    telem = result.telemetry
    path = tmp_path / "trace.jsonl"
    written = telem.export_jsonl(path)
    assert written == len(telem)
    loaded = load_jsonl(path)
    assert len(loaded) == written
    for original, back in zip(telem.iter_events(), loaded):
        for name in TraceEvent.__slots__:
            assert getattr(back, name) == getattr(original, name)


# -- parallel / pickling ---------------------------------------------------


def test_telemetry_summary_pickles():
    summary = run(Dctcp(), incast(), observe=True).telemetry.summary()
    clone = pickle.loads(pickle.dumps(summary))
    assert clone == summary


def test_grid_task_observe_round_trips_summary():
    import dataclasses
    serial = run(Dctcp(), incast(), observe=True).telemetry.summary()
    tasks = [GridTask(scheme_factory=Dctcp, scenario_factory=incast,
                      label="obs", observe=True)]
    for jobs in (1, 2):
        [summary] = run_grid(tasks, jobs=jobs)
        # everything except wall-clock timing is deterministic
        assert dataclasses.replace(summary.telemetry, wall_seconds=0.0) \
            == dataclasses.replace(serial, wall_seconds=0.0)
    [plain] = run_grid([GridTask(scheme_factory=Dctcp,
                                 scenario_factory=incast, label="bare")])
    assert plain.telemetry is None
