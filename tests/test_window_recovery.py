"""Loss-recovery coverage for the window transport core.

Forced packet drops must trigger fast-retransmit and RTO (with
exponential backoff, capped), and the flow must still complete — for
every window-based scheme in the family (DCTCP, PIAS, PPT).
"""

import random

import pytest

from conftest import make_ctx, quick_qcfg
from repro.core.ppt import Ppt
from repro.faults import LinkFaultInjector, LossInjector
from repro.sim.topology import dumbbell
from repro.transport.base import Flow, TransportConfig
from repro.transport.dctcp import Dctcp
from repro.transport.window import RTO_BACKOFF
from repro.transport.pias import Pias
from repro.units import gbps, us

SCHEMES = [Dctcp, Pias, Ppt]


def launch(scheme_cls, topo, size=300_000, **cfg):
    scheme = scheme_cls()
    scheme.configure_network(topo.network)
    cfg.setdefault("min_rto", 1e-3)
    ctx = make_ctx(topo, **cfg)
    flow = Flow(0, 0, 1, size, 0.0)
    scheme.start_flow(flow, ctx)
    return flow, topo.network.hosts[0].endpoints[0]


def make_dumbbell():
    return dumbbell(rate=gbps(10), prop_delay=us(5), qcfg=quick_qcfg())


@pytest.mark.parametrize("scheme_cls", SCHEMES, ids=lambda c: c.name)
def test_random_loss_triggers_fast_retransmit(scheme_cls):
    topo = make_dumbbell()
    port = topo.network.port_named("sw0->sw1")
    LossInjector(topo.sim, port, 0.05, random.Random("loss")).attach()
    flow, sender = launch(scheme_cls, topo)
    topo.sim.run(until=2.0)
    assert flow.completed
    # random loss with SACK feedback is recovered via fast retransmit
    assert sender.pkts_retransmitted > 0


@pytest.mark.parametrize("scheme_cls", SCHEMES, ids=lambda c: c.name)
def test_blackout_triggers_rto_with_backoff(scheme_cls):
    topo = make_dumbbell()
    port = topo.network.port_named("sw0->sw1")
    injector = LinkFaultInjector(topo.sim, port).attach()
    # blackout long enough for several timeouts, shorter than the cap
    # would need to ride out: min_rto=1ms, max_rto=8ms, 50ms of darkness
    injector.schedule_blackout(0.0002, 0.05)
    flow, sender = launch(scheme_cls, topo, max_rto=8e-3)

    samples = {}

    def probe():
        samples["exp"] = sender.rto_backoff_exp
        samples["interval"] = sender.rto_interval()

    topo.sim.schedule_at(0.045, probe)  # deep into the blackout
    topo.sim.run(until=2.0)

    assert flow.completed
    assert sender.rtos_fired >= 2
    # mid-blackout the timer had backed off, but never past the cap
    assert samples["exp"] >= 2
    assert samples["interval"] <= 8e-3
    assert samples["interval"] > sender.cfg.min_rto
    # the first post-recovery ACK reset the backoff
    assert sender.rto_backoff_exp == 0


def test_rto_interval_backoff_math():
    topo = make_dumbbell()
    flow, sender = launch(Dctcp, topo, min_rto=1e-3, max_rto=16e-3)
    sender.srtt = 0.0  # pin the base at min_rto
    assert sender.rto_interval() == pytest.approx(1e-3)
    for exp, expected in [(1, 2e-3), (2, 4e-3), (3, 8e-3),
                          (4, 16e-3), (5, 16e-3), (16, 16e-3)]:
        sender.rto_backoff_exp = exp
        assert sender.rto_interval() == pytest.approx(expected)


def test_backoff_exponent_is_capped():
    topo = make_dumbbell()
    flow, sender = launch(Dctcp, topo)
    sender.rto_backoff_exp = sender.MAX_BACKOFF_EXP
    sender._on_rto()
    assert sender.rto_backoff_exp == sender.MAX_BACKOFF_EXP
    assert sender.rto_interval() <= max(sender.cfg.max_rto,
                                        sender.cfg.min_rto)


def test_max_rto_defaults_sane():
    cfg = TransportConfig()
    assert cfg.max_rto >= cfg.min_rto
    assert RTO_BACKOFF > 1.0


def test_base_rto_capped_by_max_rto():
    # an srtt inflated by queueing must not let the un-backed-off base
    # timeout exceed the cap that backoff itself respects
    topo = make_dumbbell()
    flow, sender = launch(Dctcp, topo, min_rto=1e-3, max_rto=16e-3)
    sender.srtt = 1.0
    assert sender.rto_backoff_exp == 0
    assert sender.rto_interval() == pytest.approx(16e-3)
    # backoff on top of the capped base stays capped too
    sender.rto_backoff_exp = 3
    assert sender.rto_interval() == pytest.approx(16e-3)


def test_post_rto_resends_count_as_retransmissions():
    """Regression: RTO recovery re-sends presumed-lost packets through
    the plain try_send path; those are retransmissions and must be
    counted as such (pre-fix they went out with ``retransmit=False``)."""
    topo = make_dumbbell()
    flow, sender = launch(Dctcp, topo, size=30_000)
    # let the initial window leave the host, but nothing is ACKed yet
    topo.sim.run(until=10e-6)
    assert sender.pkts_transmitted > 0
    assert sender.pkts_retransmitted == 0
    before = sender.pkts_transmitted
    sender._on_rto()  # presume everything in flight lost
    resent = sender.pkts_transmitted - before
    assert resent > 0
    assert sender.pkts_retransmitted == resent


def test_blackout_rto_recovery_is_visible_in_counters():
    # blackout from t=0: no SACK feedback exists, so recovery is pure
    # RTO — and that recovery work must show up in the counters
    topo = make_dumbbell()
    port = topo.network.port_named("sw0->sw1")
    injector = LinkFaultInjector(topo.sim, port).attach()
    injector.schedule_blackout(0.0, 0.005)
    flow, sender = launch(Dctcp, topo, size=30_000, max_rto=8e-3)
    topo.sim.run(until=2.0)
    assert flow.completed
    assert sender.rtos_fired >= 1
    assert sender.pkts_retransmitted > 0


def test_ack_clocking_does_not_churn_timers():
    """The lazy-deadline RTO keeps one live timer per sender instead of
    one cancelled heap entry per ACK: mid-transfer the heap must hold
    (almost) no dead entries."""
    topo = make_dumbbell()
    flow, sender = launch(Dctcp, topo, size=300_000)
    dead_counts = []

    def probe():
        dead_counts.append(topo.sim.pending - topo.sim.live_pending)
        if not flow.completed:
            topo.sim.schedule(50e-6, probe)

    topo.sim.schedule(50e-6, probe)
    topo.sim.run(until=2.0)
    assert flow.completed
    assert sender.acks_received > 100  # plenty of ACK-clocking happened
    # at most the completion-time cancel is ever outstanding
    assert max(dead_counts) <= 2


# ---------------------------------------------------------------------------
# Dup-ACK rescan guard: skipping the O(W) hole scan while the no-hole
# floor proves it empty must be *exactly* behaviour-preserving
# ---------------------------------------------------------------------------


def test_dup_ack_rescan_guard_is_bit_identical():
    from repro.experiments.runner import run
    from repro.experiments.scenarios import incast_scenario, star_fabric
    from repro.transport.dctcp import DctcpSender
    from repro.workloads.distributions import WEB_SEARCH

    class LegacyRescanSender(DctcpSender):
        # pre-guard behaviour: rescan the outstanding map on every
        # third-and-later dup ACK, never trusting the floor
        def _fast_retransmit(self):
            self._no_hole_floor = None
            super()._fast_retransmit()

    class LegacyRescanDctcp(Dctcp):
        sender_cls = LegacyRescanSender

    def scenario():
        return incast_scenario("rescan", WEB_SEARCH, n_senders=5,
                               load=0.8, n_flows=40,
                               fabric=star_fabric(6), seed=17)

    current = run(Dctcp(), scenario())
    legacy = run(LegacyRescanDctcp(), scenario())

    # the workload must actually exercise dup-ACK recovery
    assert current.health.retransmits_total > 0
    assert ([f.fct for f in current.flows] == [f.fct for f in legacy.flows])
    assert current.stats == legacy.stats
    assert current.wall_events == legacy.wall_events
    assert (current.health.retransmits_total
            == legacy.health.retransmits_total)
