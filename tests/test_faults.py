"""Tests for the fault-injection subsystem (repro.faults)."""

import random

import pytest

from conftest import make_ctx, quick_qcfg
from repro.faults import (
    FaultPlan,
    LinkDown,
    LinkFlap,
    LinkFaultInjector,
    LossInjector,
    PacketLoss,
    PortDegrader,
    RateDegrade,
)
from repro.faults.injectors import INFINITY
from repro.sim.link import FaultChain
from repro.sim.topology import dumbbell
from repro.transport.base import Flow
from repro.transport.dctcp import Dctcp
from repro.units import gbps, us


def make_dumbbell():
    return dumbbell(rate=gbps(10), prop_delay=us(5), qcfg=quick_qcfg())


def start_flow(topo, size=300_000, **cfg):
    """One DCTCP flow host0 -> host1; returns (flow, sender, ctx)."""
    scheme = Dctcp()
    scheme.configure_network(topo.network)
    ctx = make_ctx(topo, **cfg)
    flow = Flow(0, 0, 1, size, 0.0)
    scheme.start_flow(flow, ctx)
    sender = topo.network.hosts[0].endpoints[0]
    return flow, sender, ctx


# ---------------------------------------------------------------------------
# port hooks
# ---------------------------------------------------------------------------


def test_ports_have_no_chain_by_default():
    topo = make_dumbbell()
    assert all(port.fault_chain is None for port in topo.network.ports)


def test_attach_fault_chain():
    topo = make_dumbbell()
    port = topo.network.port_named("sw0->sw1")
    injector = LinkFaultInjector(topo.sim, port).attach()
    assert isinstance(port.fault_chain, FaultChain)
    assert injector in port.fault_chain.injectors


def test_find_ports_exact_glob_and_missing():
    topo = make_dumbbell()
    net = topo.network
    assert [p.name for p in net.find_ports("sw0->sw1")] == ["sw0->sw1"]
    both = net.find_ports("sw*->sw*")
    assert sorted(p.name for p in both) == ["sw0->sw1", "sw1->sw0"]
    with pytest.raises(KeyError):
        net.find_ports("nonexistent->port")
    with pytest.raises(KeyError):
        net.port_named("nope")


# ---------------------------------------------------------------------------
# injectors
# ---------------------------------------------------------------------------


def test_link_down_drops_and_flushes():
    topo = make_dumbbell()
    port = topo.network.port_named("sw0->sw1")
    injector = LinkFaultInjector(topo.sim, port).attach()
    # blackout covering the whole (short) run: nothing gets through
    injector.schedule_blackout(0.0, 1.0)
    flow, sender, _ = start_flow(topo)
    topo.sim.run(until=0.01)
    assert not flow.completed
    assert injector.pkts_dropped > 0
    assert injector.is_down
    assert port.mux.empty  # down flushes everything queued


def record_transitions(injector):
    """``(time, is_down)`` per transition, through the hook telemetry
    and the hybrid controller read."""
    seen = []
    injector.transition_hook = (
        lambda _port, down: seen.append((injector.sim.now, down)))
    return seen


def test_link_blackout_then_recovery():
    topo = make_dumbbell()
    port = topo.network.port_named("sw0->sw1")
    injector = LinkFaultInjector(topo.sim, port).attach()
    injector.schedule_blackout(0.0002, 0.002)
    seen = record_transitions(injector)
    flow, sender, _ = start_flow(topo, min_rto=1e-3)
    topo.sim.run(until=1.0)
    assert flow.completed
    assert sender.rtos_fired > 0            # recovery went through the RTO
    assert sender.pkts_transmitted > sender.n_packets
    assert not injector.is_down
    assert seen == [(pytest.approx(0.0002), True),
                    (pytest.approx(0.0022), False)]


def test_flap_schedule_transitions():
    topo = make_dumbbell()
    port = topo.network.port_named("sw0->sw1")
    injector = LinkFaultInjector(topo.sim, port).attach()
    injector.schedule_flap(0.001, down_time=0.001, up_time=0.002, cycles=3)
    seen = record_transitions(injector)
    topo.sim.run(until=0.1)
    assert [down for _time, down in seen] == [True, False] * 3
    assert not injector.is_down


def test_loss_injector_deterministic():
    fcts, drops = [], []
    for _ in range(2):
        topo = make_dumbbell()
        port = topo.network.port_named("sw0->sw1")
        LossInjector(topo.sim, port, 0.05, random.Random("seed-a")).attach()
        flow, sender, _ = start_flow(topo)
        topo.sim.run(until=2.0)
        assert flow.completed
        assert sender.pkts_retransmitted > 0
        fcts.append(flow.fct)
        drops.append(port.fault_chain.injectors[0].pkts_dropped)
    assert fcts[0] == fcts[1]
    assert drops[0] == drops[1] > 0


def test_loss_injector_window_respected():
    topo = make_dumbbell()
    port = topo.network.port_named("sw0->sw1")
    # window opens long after the flow is done: lossless in practice
    injector = LossInjector(topo.sim, port, 1.0, random.Random("x"),
                            start=100.0, end=INFINITY).attach()
    flow, sender, _ = start_flow(topo)
    topo.sim.run(until=1.0)
    assert flow.completed
    assert injector.pkts_dropped == 0
    assert sender.pkts_retransmitted == 0


def test_loss_injector_rejects_bad_rate():
    topo = make_dumbbell()
    port = topo.network.port_named("sw0->sw1")
    with pytest.raises(ValueError):
        LossInjector(topo.sim, port, 1.5, random.Random(0))


def test_port_degrader_slows_transfer():
    baseline = make_dumbbell()
    flow_base, _, _ = start_flow(baseline)
    baseline.sim.run(until=2.0)

    degraded = make_dumbbell()
    port = degraded.network.port_named("sw0->sw1")
    degrader = PortDegrader(degraded.sim, port, 0.1)
    degrader.schedule(0.0, INFINITY)
    flow_deg, _, _ = start_flow(degraded)
    degraded.sim.run(until=2.0)

    assert flow_base.completed and flow_deg.completed
    assert flow_deg.fct > flow_base.fct * 2
    degrader.restore()
    assert port.rate_bps == pytest.approx(gbps(10))


def test_port_degrader_rejects_bad_factor():
    topo = make_dumbbell()
    port = topo.network.port_named("sw0->sw1")
    with pytest.raises(ValueError):
        PortDegrader(topo.sim, port, 0.0)


# ---------------------------------------------------------------------------
# the plan
# ---------------------------------------------------------------------------


def test_plan_parse_round_trip():
    plan = FaultPlan.parse([
        "down:sw0->sw1:0.001:0.002",
        "flap:sw0->sw1:0.001:0.002:0.003:4",
        "loss:sw*->sw*:0.05",
        "degrade:sw1->sw0:0.1:0.002:0.01",
    ], seed=42)
    assert plan.seed == 42
    down, flap, loss, degrade = plan.events
    assert down == LinkDown("sw0->sw1", 0.001, 0.002)
    assert down.end == pytest.approx(0.003)
    assert flap == LinkFlap("sw0->sw1", 0.001, 0.002, 0.003, 4)
    assert flap.end == pytest.approx(0.001 + 4 * 0.005)
    assert loss == PacketLoss("sw*->sw*", 0.05, 0.0, INFINITY)
    assert degrade == RateDegrade("sw1->sw0", 0.1, 0.002, 0.01)
    assert len(plan.describe()) == 4


def test_plan_parse_rejects_garbage():
    with pytest.raises(ValueError):
        FaultPlan.parse(["explode:sw0->sw1:1"])
    with pytest.raises(ValueError):
        FaultPlan.parse(["down:sw0->sw1"])  # missing fields
    with pytest.raises(ValueError):
        FaultPlan.parse(["loss:sw0->sw1:not-a-number"])


@pytest.mark.parametrize("spec", [
    "down:sw0->sw1:0.001:0.002:zzz",
    "flap:sw0->sw1:0.001:0.002:0.003:4:1",
    "loss:sw0->sw1:0.05:0:0.01:9",
    "degrade:sw1->sw0:0.1:0.002:0.01:0.02",
    "pfcstorm:sw0->sw1:0.002:0.004:0:0",
])
def test_plan_parse_rejects_trailing_fields(spec):
    """A trailing field used to be dropped: the spec ran as if it were
    not there."""
    with pytest.raises(ValueError, match="extra field"):
        FaultPlan.parse([spec])


@pytest.mark.parametrize("spec, match", [
    ("down:sw0->sw1:nan:0.002", "start time nan"),
    ("down:sw0->sw1:inf:0.002", "start time inf"),
    ("down:sw0->sw1:0.001:nan", "duration nan"),
    ("down:sw0->sw1:0.001:inf", "duration inf"),
    ("flap:sw0->sw1:0.001:inf:0.001", "down_time inf"),
    ("flap:sw0->sw1:0.001:0.001:nan", "up_time nan"),
    ("loss:sw0->sw1:0.05:0.001:nan", "is NaN"),
    ("degrade:sw1->sw0:0.1:nan", "start time nan"),
    ("pfcstorm:sw0->sw1:0.002:inf", "duration inf"),
])
def test_plan_rejects_non_finite_times(spec, match):
    """A NaN start used to be accepted and then inject nothing."""
    with pytest.raises(ValueError, match=match):
        FaultPlan.parse([spec])


def test_plan_accepts_an_open_ended_window():
    [loss] = FaultPlan.parse(["loss:sw0->sw1:0.05:0.001:inf"]).events
    assert loss.end == INFINITY  # +inf means "the whole run"


def test_plan_rejects_non_events():
    with pytest.raises(TypeError):
        FaultPlan(["down:sw0->sw1:0:1"])  # strings must go through parse


def test_plan_apply_resolves_globs_and_is_deterministic():
    results = []
    for _ in range(2):
        topo = make_dumbbell()
        plan = FaultPlan([PacketLoss("sw*->sw*", 0.05)], seed=9)
        active = plan.apply(topo.network, topo.sim)
        assert len(active.injectors) == 2  # both directions matched
        flow, _, _ = start_flow(topo)
        topo.sim.run(until=2.0)
        assert flow.completed
        results.append((flow.fct, active.pkts_dropped))
    assert results[0] == results[1]
    assert results[0][1] > 0


def test_plan_apply_unknown_port_raises():
    topo = make_dumbbell()
    plan = FaultPlan([LinkDown("no-such-link", 0.0, 1.0)])
    with pytest.raises(KeyError):
        plan.apply(topo.network, topo.sim)


def test_active_faults_runtime_queries():
    topo = make_dumbbell()
    plan = FaultPlan([LinkDown("sw0->sw1", 0.001, 0.002)])
    active = plan.apply(topo.network, topo.sim)
    assert active.down_links() == []
    assert not active.any_active_or_recent(0.0)
    topo.sim.run(until=0.0015)  # inside the blackout
    assert active.down_links() == ["sw0->sw1"]
    assert active.active_faults() == ["down sw0->sw1 [0.001s, 0.003s)"]
    assert active.any_active_or_recent(topo.sim.now)
    topo.sim.run(until=0.01)  # after it
    assert active.down_links() == []
    assert active.any_active_or_recent(0.0035, grace=0.001)
    assert not active.any_active_or_recent(0.01, grace=0.001)


def test_a_new_fault_kind_is_one_class(monkeypatch, capsys):
    """Everything the plan, the spec parser and the ``--fault`` help know
    about a fault kind is on its event class: a throwaway kind defined
    and registered here works end to end with no edit to ``plan.py``."""
    from dataclasses import dataclass
    from typing import ClassVar

    from repro.cli import main
    from repro.faults import FAULT_KINDS

    @dataclass(frozen=True)
    class Brownout:
        """``port`` runs at ``percent`` % of its rate from ``start`` on."""

        port: str
        start: float
        percent: float
        end: ClassVar[float] = INFINITY

        kind: ClassVar[str] = "brownout"
        spec: ClassVar[str] = "brownout:PORT:START:PERCENT"

        @classmethod
        def from_args(cls, args):
            return cls(args[0], float(args[1]), float(args[2]))

        def describe(self):
            return f"brownout {self.percent:g}% {self.port}"

        def validate(self):
            if not 0.0 < self.percent <= 100.0:
                raise ValueError(f"percent {self.percent!r} out of range")

        def inject(self, sim, port, rng):
            injector = PortDegrader(sim, port, self.percent / 100.0)
            injector.schedule(self.start, self.end)
            return injector

    with pytest.raises(ValueError, match="unknown fault kind 'brownout'"):
        FaultPlan.parse(["brownout:sw0->sw1:0.001:10"])
    monkeypatch.setitem(FAULT_KINDS, Brownout.kind, Brownout)

    # parses
    plan = FaultPlan.parse(["brownout:sw0->sw1:0.001:10"])
    assert plan.events == [Brownout("sw0->sw1", 0.001, 10.0)]
    # validates, with the plan's usual prefix
    with pytest.raises(ValueError, match=r"events\[0\] \(brownout 0% "
                                         r"sw0->sw1\): percent 0.0 out"):
        FaultPlan.parse(["brownout:sw0->sw1:0.001:0"])
    # applies
    topo = make_dumbbell()
    active = plan.apply(topo.network, topo.sim)
    port = topo.network.port_named("sw0->sw1")
    topo.sim.run(until=0.002)
    assert port.rate_bps == pytest.approx(gbps(1))
    assert active.describe_windows() == ["brownout 10% sw0->sw1"]
    assert active.active_faults() == ["brownout 10% sw0->sw1"]
    # and the generated --fault help lists it next to the built-in kinds
    with pytest.raises(SystemExit):
        main(["run", "--help"])
    help_text = "".join(capsys.readouterr().out.split())
    assert "brownout:PORT:START:PERCENT" in help_text
    assert "down:PORT:START:DURATION" in help_text
