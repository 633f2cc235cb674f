"""Tests for the DCTCP congestion-control model."""

import pytest

from conftest import make_ctx, make_star, run_single_flow
from repro.transport.base import Flow
from repro.transport.dctcp import ALPHA_HISTORY, DCTCP_G, Dctcp, DctcpSender


def make_sender(size=1_000_000, **cfg):
    topo = make_star()
    ctx = make_ctx(topo, **cfg)
    return DctcpSender(Flow(0, 0, 1, size, 0.0), ctx), topo


def drive_window(sender, n_acks, ce=False):
    """Feed n acks and force the end-of-window alpha update."""
    for _ in range(n_acks):
        sender.cc_on_ack(ce, 1e-5)
    sender.cum = sender._win_end  # reach the window boundary
    sender.cc_on_ack(ce, 1e-5)


def test_alpha_initialised_to_one():
    sender, _ = make_sender()
    assert sender.alpha == 1.0


def test_alpha_decays_without_marks():
    sender, _ = make_sender()
    a0 = sender.alpha
    drive_window(sender, 10, ce=False)
    assert sender.alpha < a0
    # Eq. 1 with F=0: alpha <- (1-g) * alpha
    assert sender.alpha == pytest.approx((1 - DCTCP_G) * a0)


def test_alpha_rises_with_marks():
    sender, _ = make_sender()
    drive_window(sender, 10, ce=False)
    low = sender.alpha
    drive_window(sender, 10, ce=True)
    assert sender.alpha > low


def test_window_cut_by_alpha_over_two():
    sender, _ = make_sender()
    # decay alpha over some unmarked windows first
    for _ in range(5):
        drive_window(sender, 10, ce=False)
    sender.startup_done = True
    cwnd = sender.cwnd = 40.0
    alpha_before = sender.alpha
    drive_window(sender, 10, ce=True)
    # cut uses the *updated* alpha: cwnd * (1 - alpha/2), then + growth
    assert sender.cwnd < cwnd
    assert sender.cwnd >= cwnd * (1 - 0.5 * 1.0)  # at most halved


def test_first_mark_exits_slow_start():
    sender, _ = make_sender()
    assert not sender.startup_done
    drive_window(sender, 10, ce=True)
    assert sender.startup_done
    assert sender.ssthresh < float("inf")


def test_no_cut_on_unmarked_window():
    sender, _ = make_sender()
    sender.startup_done = True
    sender.ssthresh = 10.0
    sender.cwnd = 20.0
    drive_window(sender, 10, ce=False)
    assert sender.cwnd >= 20.0


def test_wmax_tracks_post_startup_only():
    sender, _ = make_sender()
    # grow big during slow start: wmax must remain 0
    for _ in range(50):
        sender.cc_on_ack(False, 1e-5)
    assert sender.wmax == 0.0
    drive_window(sender, 5, ce=True)  # exit startup
    assert sender.wmax > 0.0
    peak = max(sender.wmax, sender.cwnd)
    drive_window(sender, 30, ce=False)
    assert sender.wmax >= peak * 0.9


def test_alpha_min_over_history():
    sender, _ = make_sender()
    for _ in range(4):
        drive_window(sender, 10, ce=False)
    assert sender.alpha_min == pytest.approx(min(sender.alpha_history))
    assert sender.alpha_min <= sender.alpha + 1e-12


def test_alpha_history_bounded():
    sender, _ = make_sender()
    for _ in range(ALPHA_HISTORY + 10):
        drive_window(sender, 4, ce=False)
    assert len(sender.alpha_history) == ALPHA_HISTORY


def test_window_update_hook_fires():
    sender, _ = make_sender()
    calls = []
    sender.on_window_update = lambda: calls.append(sender.alpha)
    drive_window(sender, 10, ce=False)
    # fired after the window's alpha update
    assert calls and calls[0] == sender.alpha_history[0]


def test_rto_resets_to_one_packet():
    sender, _ = make_sender()
    sender.cwnd = 30.0
    sender.cc_on_rto()
    assert sender.cwnd == 1.0
    assert sender.startup_done


def test_fast_rtx_halves():
    sender, _ = make_sender()
    sender.cwnd = 30.0
    sender.cc_on_fast_rtx()
    assert sender.cwnd == pytest.approx(15.0)


def test_end_to_end_flow_completes_with_marking():
    flow, ctx, topo = run_single_flow(Dctcp(), 500_000, until=2.0)
    assert flow.completed
    sender = topo.network.hosts[0].endpoints[0]
    assert sender.alpha < 1.0  # alpha was updated during the run


def test_two_competing_flows_share_and_complete():
    topo = make_star(3)
    ctx = make_ctx(topo)
    scheme = Dctcp()
    f1 = Flow(0, 0, 2, 400_000, 0.0)
    f2 = Flow(1, 1, 2, 400_000, 0.0)
    scheme.start_flow(f1, ctx)
    scheme.start_flow(f2, ctx)
    topo.sim.run(until=2.0)
    assert f1.completed and f2.completed
    # the pair cannot beat the shared bottleneck's serialization time,
    # and neither flow should be starved beyond a loose bound
    ideal_pair = 2 * 400_000 * 8 / topo.edge_rate
    assert max(f1.fct, f2.fct) >= ideal_pair * 0.9
    assert max(f1.fct, f2.fct) < 5e-3
