"""Tests for the PPT-over-HPCC extension (paper appendix B)."""

from conftest import make_ctx, make_star, run_single_flow
from repro.core.ppt_hpcc import PptHpcc, PptHpccSender
from repro.transport.base import Flow
from repro.transport.hpcc import Hpcc


def test_flow_completes():
    flow, ctx, _ = run_single_flow(PptHpcc(), 500_000, until=2.0)
    assert flow.completed


def test_lcp_opens_when_int_reports_spare():
    topo = make_star()
    ctx = make_ctx(topo)
    sender = PptHpccSender(Flow(0, 0, 1, 600_000, 0.0), ctx, PptHpcc())
    sender._last_u = 0.2  # INT says the path is mostly idle
    sender.cwnd = 5.0
    sender._spare_check()
    assert sender.lcp.active


def test_lcp_stays_closed_when_path_busy():
    topo = make_star()
    ctx = make_ctx(topo)
    sender = PptHpccSender(Flow(0, 0, 1, 600_000, 0.0), ctx, PptHpcc())
    sender._last_u = 0.99
    sender._spare_check()
    assert not sender.lcp.active


def test_uses_ppt_scheduling(attached):
    flow, ctx, topo = run_single_flow(PptHpcc(), 5_000_000, until=5.0)
    sender = attached.senders[0]
    assert sender.identified_large
    assert sender.priority_for(0) == 3


def test_no_worse_than_plain_hpcc_solo():
    f_hpcc, _, _ = run_single_flow(Hpcc(), 300_000, until=2.0)
    f_ext, _, _ = run_single_flow(PptHpcc(), 300_000, until=2.0)
    assert f_ext.fct <= f_hpcc.fct * 1.1


def test_stop_cancels_timers(attached):
    flow, ctx, topo = run_single_flow(PptHpcc(), 100_000, until=1.0)
    sender = attached.senders[0]
    assert sender.finished
    assert sender._check_event is None or sender._check_event.cancelled
