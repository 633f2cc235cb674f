"""Tests for the ExpressPass and TIMELY baselines."""

import pytest

from conftest import make_ctx, make_star, run_single_flow
from repro.transport.base import Flow
from repro.transport.expresspass import ExpressPass, ExpressPassSender
from repro.transport.timely import Timely, TimelySender


# -- ExpressPass --------------------------------------------------------------


def test_expresspass_completes():
    flow, ctx, _ = run_single_flow(ExpressPass(), 300_000, until=2.0)
    assert flow.completed


def test_expresspass_first_rtt_carries_no_data():
    """The paper's critique: no payload moves before credits arrive."""
    topo = make_star()
    ctx = make_ctx(topo)
    flow = Flow(0, 0, 1, 300_000, 0.0)
    ExpressPass().start_flow(flow, ctx)
    topo.sim.run(until=topo.network.base_rtt(0, 1) * 0.9)
    sender = topo.network.hosts[0].endpoints[0]
    assert sender.pkts_transmitted == 0


def test_expresspass_one_packet_per_credit():
    flow, ctx, topo = run_single_flow(ExpressPass(), 150_000, until=2.0)
    sender = topo.network.hosts[0].endpoints[0]
    n = flow.n_packets(ctx.config.mss)
    # lossless run: exactly one transmission per packet (plus none extra)
    assert sender.pkts_transmitted == n


def test_expresspass_credits_shared_round_robin():
    """Two concurrent inbound messages complete at similar times (fair
    credit sharing), and aggregate at about the credit rate."""
    topo = make_star(3)
    ctx = make_ctx(topo)
    scheme = ExpressPass()
    f1 = Flow(0, 0, 2, 300_000, 0.0)
    f2 = Flow(1, 1, 2, 300_000, 0.0)
    scheme.start_flow(f1, ctx)
    scheme.start_flow(f2, ctx)
    topo.sim.run(until=2.0)
    assert f1.completed and f2.completed
    assert abs(f1.fct - f2.fct) < 0.3 * max(f1.fct, f2.fct)


def test_expresspass_recovers_lost_data():
    from repro.sim.network import QueueConfig
    from repro.sim.topology import star
    from repro.units import gbps, us
    qcfg = QueueConfig(buffer_bytes=18_000)
    topo = star(4, rate=gbps(40), prop_delay=us(4), qcfg=qcfg)
    ctx = make_ctx(topo)
    scheme = ExpressPass()
    flows = [Flow(i, i, 3, 150_000, 0.0) for i in range(3)]
    for f in flows:
        scheme.start_flow(f, ctx)
    topo.sim.run(until=2.0)
    assert all(f.completed for f in flows)


def test_expresspass_counts_every_resend_as_retransmission():
    """On the golden loss cell every transmission beyond the packets the
    messages need is a re-credited hole, and is counted as one (the
    sender used to compare against the cumulative ACK, which a hole is
    never below, and reported 0)."""
    from repro.experiments.runner import run
    from test_golden_fingerprints import CELLS
    scenario = CELLS["expresspass-loss"][1]()
    result = run(ExpressPass(), scenario)
    assert result.completed == 60
    senders = [endpoint
               for host in result.topology.network.hosts.values()
               for endpoint in host.endpoints.values()
               if isinstance(endpoint, ExpressPassSender)]
    transmitted = sum(s.pkts_transmitted for s in senders)
    needed = sum(f.n_packets(scenario.config.mss) for f in result.flows)
    assert result.health.retransmits_total == transmitted - needed > 0


# -- TIMELY -------------------------------------------------------------------


def test_timely_completes():
    flow, ctx, _ = run_single_flow(Timely(), 500_000, until=5.0)
    assert flow.completed


def test_timely_increases_below_tlow():
    topo = make_star()
    ctx = make_ctx(topo)
    sender = TimelySender(Flow(0, 0, 1, 1_000_000, 0.0), ctx)
    sender.cwnd = 10.0
    sender.cc_on_ack(False, sender.base_rtt)  # below T_low
    assert sender.cwnd > 10.0


def test_timely_decreases_above_thigh():
    topo = make_star()
    ctx = make_ctx(topo)
    sender = TimelySender(Flow(0, 0, 1, 1_000_000, 0.0), ctx)
    sender.cwnd = 20.0
    sender.cc_on_ack(False, sender.base_rtt * 10)
    assert sender.cwnd < 20.0


def test_timely_gradient_reaction():
    topo = make_star()
    ctx = make_ctx(topo)
    sender = TimelySender(Flow(0, 0, 1, 1_000_000, 0.0), ctx)
    sender.cwnd = 20.0
    mid = sender.base_rtt * 2  # between T_low and T_high
    # rising RTT -> positive gradient -> decrease
    for rtt in (mid, mid * 1.2, mid * 1.4):
        sender.cc_on_ack(False, rtt)
    assert sender.cwnd < 20.0
    # a sustained falling RTT flips the smoothed gradient; once it is
    # negative the window grows additively again
    for step in range(8):
        sender.cc_on_ack(False, mid * (1.3 - 0.05 * step))
    assert sender._gradient <= 0
    before = sender.cwnd
    for step in range(3):
        sender.cc_on_ack(False, mid * (0.9 - 0.05 * step))
    assert sender.cwnd > before


def test_timely_not_ecn_capable():
    topo = make_star()
    ctx = make_ctx(topo)
    sender = TimelySender(Flow(0, 0, 1, 1_000, 0.0), ctx)
    assert not sender.ecn_capable()
