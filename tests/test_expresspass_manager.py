"""Unit tests for the ExpressPass per-host credit manager."""

import pytest

from conftest import make_ctx, make_star
from repro.sim.packet import CONTROL, DATA, Packet
from repro.transport.base import Flow
from repro.transport.expresspass import (
    CREDIT_RATE_FRACTION,
    ExpressPass,
    ExpressPassReceiverHost,
)


def make_manager():
    topo = make_star(4)
    ctx = make_ctx(topo)
    manager = ExpressPassReceiverHost(3, ctx)
    return manager, ctx, topo


def test_credit_interval_matches_link_rate():
    manager, ctx, topo = make_manager()
    rate = topo.network.hosts[3].uplink.rate_bps
    expected = ctx.config.mss * 8.0 / (rate * CREDIT_RATE_FRACTION)
    assert manager._pacer_interval == pytest.approx(expected)


def test_credits_paced_not_burst():
    manager, ctx, topo = make_manager()
    sent = []
    ctx.network.send_control = sent.append
    manager.open_message(manager.add_message(Flow(0, 0, 3, 150_000, 0.0)))
    topo.sim.run(until=manager._pacer_interval * 4.5)
    # ~one credit per interval, plus the t=0 credit
    assert 4 <= len(sent) <= 6
    assert all(c.kind == CONTROL for c in sent)


def test_round_robin_across_messages():
    manager, ctx, topo = make_manager()
    sent = []
    ctx.network.send_control = sent.append
    manager.open_message(manager.add_message(Flow(0, 0, 3, 150_000, 0.0)))
    manager.open_message(manager.add_message(Flow(1, 1, 3, 150_000, 0.0)))
    topo.sim.run(until=manager._pacer_interval * 8.5)
    ids = [c.flow_id for c in sent]
    # alternates between the two messages
    assert ids.count(0) >= 3 and ids.count(1) >= 3
    assert any(a != b for a, b in zip(ids, ids[1:]))


def test_crediting_stops_when_fully_credited():
    manager, ctx, topo = make_manager()
    sent = []
    ctx.network.send_control = sent.append
    flow = Flow(0, 0, 3, 3000, 0.0)  # 3 packets
    manager.open_message(manager.add_message(flow))
    topo.sim.run(until=manager._pacer_interval * 20)
    credits = [c for c in sent if c.kind == CONTROL]
    assert len(credits) == 3  # exactly n, never more


def test_completion_emits_final_ack():
    manager, ctx, topo = make_manager()
    sent = []
    ctx.network.send_control = sent.append
    flow = Flow(0, 0, 3, 2000, 0.0)
    manager.open_message(manager.add_message(flow))
    manager.on_data(Packet(0, 0, 3, 0, 1500))
    manager.on_data(Packet(0, 0, 3, 1, 1500))
    assert flow.completed
    acks = [p for p in sent if p.kind != CONTROL]
    assert len(acks) == 1 and acks[0].ack_seq == 2


def test_rtx_check_targets_holes():
    manager, ctx, topo = make_manager()
    flow = Flow(0, 0, 3, 10_000, 0.0)  # 7 packets
    manager.open_message(manager.add_message(flow))
    state = manager.messages[0]
    state.credited = state.n_packets
    for seq in (0, 1, 3, 5):
        state.deliver(seq)
    state.progress_mark = 4  # no progress since last check
    manager._stall_check(state)
    assert list(state.recredit) == [2, 4, 6]


def test_rtx_check_waits_while_progress():
    manager, ctx, topo = make_manager()
    flow = Flow(0, 0, 3, 10_000, 0.0)
    manager.open_message(manager.add_message(flow))
    state = manager.messages[0]
    state.credited = state.n_packets
    for seq in (0, 1):
        state.deliver(seq)
    state.progress_mark = 0  # progress happened: 2 > 0
    manager._stall_check(state)
    assert not state.recredit
