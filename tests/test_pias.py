"""Tests for PIAS priority demotion."""

from conftest import make_ctx, make_star, run_single_flow
from repro.transport.base import Flow
from repro.transport.pias import Pias, PiasSender, demotion_priority


def test_demotion_priority_levels():
    thresholds = (100, 200, 300)
    assert demotion_priority(0, thresholds) == 0
    assert demotion_priority(99, thresholds) == 0
    assert demotion_priority(100, thresholds) == 1
    assert demotion_priority(250, thresholds) == 2
    assert demotion_priority(300, thresholds) == 3
    assert demotion_priority(10**9, thresholds) == 3


def test_sender_priority_by_bytes_sent():
    topo = make_star()
    ctx = make_ctx(topo, demotion_thresholds=(10_000, 100_000, 1_000_000))
    sender = PiasSender(Flow(0, 0, 1, 5_000_000, 0.0), ctx)
    payload = ctx.config.payload_per_packet()
    assert sender.priority_for(0) == 0
    assert sender.priority_for(10_000 // payload + 1) == 1
    assert sender.priority_for(100_000 // payload + 1) == 2
    assert sender.priority_for(1_000_000 // payload + 1) == 3


def test_small_flow_stays_at_top_priority():
    topo = make_star()
    ctx = make_ctx(topo)
    sender = PiasSender(Flow(0, 0, 1, 50_000, 0.0), ctx)
    n = sender.n_packets
    assert all(sender.priority_for(seq) == 0 for seq in range(n))


def test_end_to_end_completion():
    flow, ctx, _ = run_single_flow(Pias(), 2_000_000, until=5.0)
    assert flow.completed


def test_demotion_observed_on_wire(attached):
    """A multi-MB flow's packets must actually leave at demoted
    priorities."""
    seen = set()
    from repro.sim.link import Port
    flow, ctx, topo = run_single_flow(Pias(), 500_000, until=5.0,
                                      demotion_thresholds=(100_000, 200_000,
                                                           300_000))
    sender = attached.senders[0]
    priorities = {sender.priority_for(seq) for seq in range(sender.n_packets)}
    assert priorities == {0, 1, 2, 3}
