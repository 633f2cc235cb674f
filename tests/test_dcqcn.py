"""Tests for the DCQCN baseline (an appendix C citation)."""

import pytest

from conftest import make_ctx, make_star, run_single_flow
from repro.transport.base import Flow
from repro.transport.dcqcn import Dcqcn, DcqcnSender


def test_dcqcn_completes():
    flow, ctx, _ = run_single_flow(Dcqcn(), 500_000, until=2.0)
    assert flow.completed


def test_dcqcn_starts_at_line_rate():
    topo = make_star()
    ctx = make_ctx(topo)
    sender = DcqcnSender(Flow(0, 0, 1, 1_000_000, 0.0), ctx)
    assert sender.cwnd == pytest.approx(float(ctx.bdp_packets(sender.flow)))


def test_dcqcn_cuts_on_marks_and_remembers_target():
    topo = make_star()
    ctx = make_ctx(topo)
    sender = DcqcnSender(Flow(0, 0, 1, 1_000_000, 0.0), ctx)
    before = sender.cwnd
    topo.sim.now = 1.0  # pass the update-period gate
    sender.cc_on_ack(True, 1e-5)
    assert sender.cwnd < before
    assert sender.target == pytest.approx(before)


def test_dcqcn_fast_recovery_toward_target():
    topo = make_star()
    ctx = make_ctx(topo)
    sender = DcqcnSender(Flow(0, 0, 1, 1_000_000, 0.0), ctx)
    sender.target = 40.0
    sender.cwnd = 20.0
    topo.sim.now = 1.0
    sender.cc_on_ack(False, 1e-5)
    assert sender.cwnd == pytest.approx(30.0)  # (RT + RC) / 2


def test_dcqcn_hyper_increase_after_long_recovery():
    topo = make_star()
    ctx = make_ctx(topo)
    sender = DcqcnSender(Flow(0, 0, 1, 10_000_000, 0.0), ctx)
    sender.target = sender.cwnd = 10.0
    for step in range(1, 20):
        topo.sim.now = step * 1.0
        sender.cc_on_ack(False, 1e-5)
    assert sender.target > 10.0 + sender.R_AI  # hyper stage reached


def test_dcqcn_two_flows_share_and_complete():
    topo = make_star(3)
    ctx = make_ctx(topo)
    scheme = Dcqcn()
    flows = [Flow(0, 0, 2, 400_000, 0.0), Flow(1, 1, 2, 400_000, 0.0)]
    for f in flows:
        scheme.start_flow(f, ctx)
    topo.sim.run(until=5.0)
    assert all(f.completed for f in flows)
