"""A probe reading one sender: the dual-loop timeline of Fig. 5."""

import functools

from conftest import make_ctx, make_star
from repro.core.ppt import Ppt, PptReceiver, PptSender
from repro.metrics.probe import Probe
from repro.transport.base import Flow
from repro.transport.dctcp import Dctcp, DctcpSender
from repro.transport.window import WindowReceiver


def sender_state(sender):
    """What the timeline reads off a sender, None once it has finished;
    the LCP fields are None for a sender without a second loop."""
    if sender.finished:
        return None
    lcp = sender.lcp
    return {"cwnd": float(sender.cwnd), "alpha": getattr(sender, "alpha", None),
            "lcp_active": None if lcp is None else lcp.active,
            "lcp_loops": None if lcp is None else lcp.loops_opened}


def run_with_timeline(sender_cls, size=1_500_000, contender=True):
    topo = make_star(3)
    ctx = make_ctx(topo)
    flow = Flow(0, 0, 2, size, 0.0)
    if sender_cls is PptSender:
        sender = PptSender(flow, ctx, Ppt())
        receiver = PptReceiver(flow, ctx)
    else:
        sender = sender_cls(flow, ctx)
        receiver = WindowReceiver(flow, ctx)
    ctx.network.attach(0, 0, 2, sender, receiver)
    sender.start()
    probe = Probe(topo.sim, functools.partial(sender_state, sender), 5e-6)
    if contender:
        Dctcp().start_flow(Flow(1, 1, 2, size, 0.0), ctx)
    topo.sim.run(until=5.0)
    assert flow.completed
    return probe


def states(probe):
    return [state for _time, state in probe.samples if state is not None]


def test_records_cwnd_series():
    cwnd = [state["cwnd"] for state in states(run_with_timeline(DctcpSender))]
    assert len(cwnd) > 10
    assert all(value >= 1.0 for value in cwnd)
    assert max(cwnd) > 10.0


def test_sampling_stops_at_completion():
    probe = run_with_timeline(DctcpSender, size=100_000, contender=False)
    assert probe.stopped
    # the last sample reads the finished flow, and it comes well within
    # a ms of the (sub-ms) completion
    assert probe.samples[-1][1] is None
    assert probe.samples[-1][0] < 5e-3


def test_dctcp_sawtooth_under_contention():
    samples = states(run_with_timeline(DctcpSender))
    cwnd = [state["cwnd"] for state in samples]
    assert any(cur < prev * 0.9 for prev, cur in zip(cwnd, cwnd[1:]))
    alphas = [state["alpha"] for state in samples]
    assert min(alphas) < 1.0  # alpha actually evolved


def test_ppt_timeline_records_lcp_state():
    samples = states(run_with_timeline(PptSender))
    active = [state["lcp_active"] for state in samples]
    assert 0.0 < sum(active) / len(active) <= 1.0  # LCP ran part of the time
    assert max(state["lcp_loops"] for state in samples) >= 1


def test_duty_cycle_nan_for_plain_sender():
    samples = states(run_with_timeline(DctcpSender, size=100_000,
                                       contender=False))
    assert samples
    assert all(state["lcp_active"] is None for state in samples)
