"""Acceptance tests for the run-health layer in experiments.runner."""

import pytest

from conftest import quick_qcfg
from repro.faults import FaultPlan, LinkDown, PacketLoss
from repro.sim.topology import dumbbell
from repro.transport.aeolus import Aeolus
from repro.transport.base import Flow, TransportConfig
from repro.transport.dctcp import Dctcp
from repro.transport.expresspass import ExpressPass
from repro.transport.homa import Homa
from repro.transport.ndp import Ndp
from repro.experiments.runner import RunHealth, Scenario, run
from repro.experiments.scenarios import (
    HOMA_RTT_BYTES_SIM,
    incast_scenario,
    sim_config,
    star_fabric,
)
from repro.units import gbps, us
from repro.workloads.distributions import WEB_SEARCH


def make_scenario(name="health", *, size=300_000, n_flows=1,
                  max_time=2.0, **kwargs):
    """One (or a few) large flows host0 -> host1 on a 10G dumbbell,
    all starting at t=0 so fault timing is under test control."""

    def build_topology():
        return dumbbell(rate=gbps(10), prop_delay=us(5), qcfg=quick_qcfg())

    def build_flows(topo):
        return [Flow(i, 0, 1, size, 0.0) for i in range(n_flows)]

    kwargs.setdefault("config", TransportConfig(min_rto=1e-3))
    return Scenario(name, build_topology, build_flows,
                    max_time=max_time, **kwargs)


class NullScheme:
    """A scheme that never sends anything — the heap drains immediately."""

    name = "null"

    def configure_network(self, network):
        pass

    def start_flow(self, flow, ctx):
        pass


def test_clean_run_health():
    result = run(Dctcp(), make_scenario())
    h = result.health
    assert h.ok
    assert not h.stalled
    assert h.completed == h.n_flows == 1
    assert h.completion_rate == 1.0
    assert h.stall_reason is None
    assert h.dead_links == []
    assert h.fault_windows == []
    assert h.events_run > 0
    assert "1/1 flows" in h.summary()


def test_short_blackout_rides_out():
    # Blackout much shorter than the RTO cap: the transport must recover
    # and every flow must complete, with the health report saying so.
    plan = FaultPlan([LinkDown("sw0->sw1", 0.0002, 0.002)])
    result = run(Dctcp(), make_scenario(faults=plan))
    h = result.health
    assert not h.stalled
    assert h.completed == h.n_flows
    assert h.ok
    assert len(h.fault_windows) == 1
    assert "down sw0->sw1" in h.fault_windows[0]
    assert h.fault_drops > 0
    assert h.rtos_total > 0  # blackout recovery went through the RTO
    assert result.flows[0].completed


def test_permanent_blackout_reports_dead_link():
    # Blackout outlasting max_time: the run must be diagnosed as stalled
    # and the dead link named.
    plan = FaultPlan([LinkDown("sw0->sw1", 0.0, 1000.0)])
    result = run(Dctcp(), make_scenario(faults=plan, max_time=2.0))
    h = result.health
    assert h.stalled
    assert not h.ok
    assert h.completed == 0
    assert h.dead_links == ["sw0->sw1"]
    assert "sw0->sw1" in h.stall_reason
    assert h.stall_time is not None
    assert h.faults_active_at_stall
    assert "STALLED" in h.summary()


def test_heap_empty_stops_early():
    # A scheme that never transmits: once the start events fire the heap
    # is empty, and the runner must stop immediately instead of idling
    # through max_time.
    result = run(NullScheme(), make_scenario(max_time=1000.0))
    h = result.health
    assert h.stalled
    assert h.completed == 0
    assert "event heap empty" in h.stall_reason
    # stopped after the first drain slice instead of spinning to max_time
    assert h.sim_time <= 1000.0 / 200.0


def test_event_budget_enforced():
    scenario = make_scenario(event_budget=50)
    result = run(Dctcp(), scenario)
    h = result.health
    assert h.event_budget_exceeded
    assert not h.ok
    assert h.events_run <= 50
    assert "event budget exceeded" in h.summary()


def test_retransmit_counters_harvested():
    plan = FaultPlan([PacketLoss("sw0->sw1", 0.05)], seed=3)
    result = run(Dctcp(), make_scenario(faults=plan, n_flows=2))
    h = result.health
    assert h.completed == 2
    assert h.retransmits_total > 0
    assert h.fault_drops > 0


def test_rto_recovery_counted_in_health():
    # A blackout open from t=0 leaves no SACK feedback: recovery is
    # timeout-driven, and the health layer must report it as retransmit
    # work, not claim the run recovered for free.
    plan = FaultPlan([LinkDown("sw0->sw1", 0.0, 0.002)])
    result = run(Dctcp(), make_scenario(faults=plan))
    h = result.health
    assert h.completed == h.n_flows
    assert h.rtos_total > 0
    assert h.retransmits_total > 0


def test_live_pending_reported_on_stall():
    plan = FaultPlan([LinkDown("sw0->sw1", 0.0, 1000.0)])
    result = run(Dctcp(), make_scenario(faults=plan, max_time=2.0))
    h = result.health
    assert h.stalled
    # the stranded sender keeps a live RTO timer pending; the count in
    # the diagnosis is of live events, not raw heap entries
    assert h.live_pending >= 1
    # Zero-overhead guarantee: an absent plan and an empty plan must
    # produce the exact same simulation (event count and per-flow FCTs).
    plain = run(Dctcp(), make_scenario(n_flows=2))
    empty = run(Dctcp(), make_scenario(n_flows=2, faults=FaultPlan([])))
    assert plain.wall_events == empty.wall_events
    assert [f.fct for f in plain.flows] == [f.fct for f in empty.flows]
    assert empty.health.fault_windows == []
    # and the fabric genuinely had no hooks attached
    assert all(p.fault_chain is None for p in plain.topology.network.ports)
    assert all(p.fault_chain is None for p in empty.topology.network.ports)


def test_peak_pending_counts_live_work_not_cancelled_timers():
    """A receiver-driven incast re-arms a sender timeout on every grant;
    those used to pile up as cancelled heap entries (thousands here)
    while some 30 events were live."""
    result = run(Homa(rtt_bytes=HOMA_RTT_BYTES_SIM),
                 incast_scenario("incast", WEB_SEARCH, n_senders=31,
                                 load=0.6, n_flows=60))
    assert result.health.ok
    assert result.health.peak_pending < 200


def test_health_defaults():
    h = RunHealth()
    assert h.completion_rate == 0.0
    assert not h.stalled
    assert h.ok  # vacuously: 0 of 0 flows


def test_drain_never_simulates_past_max_time():
    """The final drain slice is clamped: ``t`` stepping past ``max_time``
    used to let the run simulate up to one whole slice beyond the
    scenario's stated horizon."""
    # max_time far below the 1e-4 slice-length floor: an unclamped drain
    # would overshoot to 3e-4 on its final slice
    result = run(Dctcp(), make_scenario(size=50_000_000, max_time=0.00025))
    assert not result.flows[0].completed          # flow is far from done
    assert result.health.sim_time <= 0.00025 + 1e-12


def test_drain_clamp_preserves_full_run():
    """Clamping only affects the horizon; a run that completes well
    before max_time is untouched."""
    result = run(Dctcp(), make_scenario())
    assert result.health.ok
    assert result.health.sim_time <= 2.0


def _long_message_scenario():
    """One healthy 60 MB message on a 100 Mbps star: ~5 s of simulated
    time, several stall windows long, with nothing else completing."""
    return Scenario("long-message", star_fabric(3, rate=gbps(0.1)),
                    lambda topo: [Flow(0, 0, 1, 60_000_000, 0.0)],
                    config=sim_config(min_rto=0.05), max_time=10.0)


@pytest.fixture(scope="module")
def long_message_dctcp_fct():
    return run(Dctcp(), _long_message_scenario()).flows[0].fct


@pytest.mark.parametrize("scheme", [
    Homa(rtt_bytes=HOMA_RTT_BYTES_SIM), Aeolus(rtt_bytes=HOMA_RTT_BYTES_SIM),
    Ndp(rtt_bytes=HOMA_RTT_BYTES_SIM), ExpressPass()],
    ids=lambda scheme: scheme.name)
def test_watchdog_sees_receiver_driven_progress(scheme,
                                                long_message_dctcp_fct):
    """In-message progress of a receiver-driven transport counts as
    progress: the watchdog used to see none of it and killed this run
    at 2.05 s as stalled."""
    result = run(scheme, _long_message_scenario())
    assert result.health.ok
    assert not result.health.stalled
    assert result.flows[0].fct == pytest.approx(long_message_dctcp_fct,
                                                rel=0.10)
