"""Tests for the PPT-over-Swift variant (Fig. 14)."""

from conftest import make_ctx, make_star, run_single_flow
from repro.core.ppt_swift import PptSwift, PptSwiftSender
from repro.transport.base import Flow
from repro.transport.swift import Swift


def test_flow_completes():
    flow, ctx, _ = run_single_flow(PptSwift(), 500_000, until=2.0)
    assert flow.completed


def test_lcp_opens_when_delay_below_target():
    topo = make_star()
    ctx = make_ctx(topo)
    flow = Flow(0, 0, 1, 600_000, 0.0)
    scheme = PptSwift()
    scheme.start_flow(flow, ctx)
    sender = topo.network.hosts[0].endpoints[0]
    topo.sim.run(until=sender.base_rtt * 3)
    assert sender.lcp.loops_opened > 0


def test_lcp_not_opened_when_delay_above_target():
    topo = make_star()
    ctx = make_ctx(topo)
    sender = PptSwiftSender(Flow(0, 0, 1, 600_000, 0.0), ctx, PptSwift())
    sender.srtt = sender.target_delay * 5  # congested
    sender._delay_check()
    assert not sender.lcp.active


def test_beats_plain_swift_solo():
    f_swift, _, _ = run_single_flow(Swift(), 100_000)
    f_variant, _, _ = run_single_flow(PptSwift(), 100_000)
    assert f_variant.fct <= f_swift.fct


def test_uses_mirror_scheduling(attached):
    flow, ctx, topo = run_single_flow(PptSwift(), 5_000_000, until=5.0)
    sender = attached.senders[0]
    assert sender.identified_large
    assert sender.priority_for(0) == 3


def test_stop_cancels_delay_check(attached):
    flow, ctx, topo = run_single_flow(PptSwift(), 100_000, until=1.0)
    sender = attached.senders[0]
    assert sender.finished
    assert sender._check_event is None or sender._check_event.cancelled
