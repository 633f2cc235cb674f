"""Unit tests for NDP's per-host pull pacer / delivery tracker."""

import pytest

from conftest import make_ctx, make_star
from repro.sim.packet import DATA, HEADER, HEADER_BYTES, PULL, Packet
from repro.transport.base import Flow
from repro.transport.ndp import Ndp, NdpReceiverHost


def make_manager():
    topo = make_star(4)
    ctx = make_ctx(topo)
    manager = NdpReceiverHost(3, ctx)
    return manager, ctx, topo


def data_pkt(flow_id, seq):
    return Packet(flow_id, 0, 3, seq, 1500, kind=DATA)


def header_pkt(flow_id, seq):
    pkt = Packet(flow_id, 0, 3, seq, HEADER_BYTES, kind=HEADER)
    return pkt


def test_pull_budget_excludes_first_window():
    manager, ctx, topo = make_manager()
    flow = Flow(0, 0, 3, 150_000, 0.0)   # 105 packets
    manager.add_message(flow, first_window=30)
    assert manager.messages[0].pull_budget == 75


def test_sub_window_flow_needs_no_pulls():
    manager, ctx, topo = make_manager()
    flow = Flow(0, 0, 3, 10_000, 0.0)
    manager.add_message(flow, first_window=30)
    assert manager.messages[0].pull_budget == 0
    sent = []
    ctx.network.send_control = sent.append
    manager.on_data(data_pkt(0, 0))
    topo.sim.run(until=manager._pacer_interval * 3)
    assert not [p for p in sent if p.kind == PULL]


def test_data_arrival_earns_one_pull():
    manager, ctx, topo = make_manager()
    flow = Flow(0, 0, 3, 150_000, 0.0)
    manager.add_message(flow, first_window=30)
    sent = []
    ctx.network.send_control = sent.append
    manager.on_data(data_pkt(0, 0))
    topo.sim.run(until=manager._pacer_interval * 2)
    pulls = [p for p in sent if p.kind == PULL]
    assert len(pulls) == 1
    assert pulls[0].meta is None  # plain (non-rtx) pull


def test_trimmed_header_earns_targeted_pull():
    manager, ctx, topo = make_manager()
    flow = Flow(0, 0, 3, 150_000, 0.0)
    manager.add_message(flow, first_window=30)
    sent = []
    ctx.network.send_control = sent.append
    manager.on_control(header_pkt(0, 17))
    topo.sim.run(until=manager._pacer_interval * 2)
    pulls = [p for p in sent if p.kind == PULL]
    assert len(pulls) == 1
    assert pulls[0].meta == 17  # retransmission request for that seq


def test_pulls_paced_at_link_interval():
    manager, ctx, topo = make_manager()
    flow = Flow(0, 0, 3, 300_000, 0.0)
    manager.add_message(flow, first_window=10)
    sent = []
    ctx.network.send_control = sent.append
    for seq in range(10):
        manager.on_data(data_pkt(0, seq))  # burst of arrivals
    topo.sim.run(until=manager._pacer_interval * 5.5)
    pulls = [p for p in sent if p.kind == PULL]
    # paced: ~one per interval, not a burst of ten
    assert 5 <= len(pulls) <= 7


def test_completion_sends_final_ack_once():
    manager, ctx, topo = make_manager()
    flow = Flow(0, 0, 3, 2000, 0.0)  # 2 packets
    manager.add_message(flow, first_window=30)
    sent = []
    ctx.network.send_control = sent.append
    manager.on_data(data_pkt(0, 0))
    manager.on_data(data_pkt(0, 1))
    manager.on_data(data_pkt(0, 1))  # duplicate after completion
    assert flow.completed
    finals = [p for p in sent if p.kind != PULL]
    assert len(finals) == 1
    assert finals[0].ack_seq == 2


def test_rtx_check_repulls_only_when_stalled():
    manager, ctx, topo = make_manager()
    flow = Flow(0, 0, 3, 30_000, 0.0)  # 21 packets
    manager.add_message(flow, first_window=30)
    state = manager.messages[0]
    for seq in range(10):
        state.deliver(seq)
    state.progress_mark = 10  # no progress since the last check
    sent = []
    ctx.network.send_control = sent.append
    manager._stall_check(state)
    topo.sim.run(until=manager._pacer_interval * 30)
    rtx_pulls = [p for p in sent if p.kind == PULL and p.meta is not None]
    assert {p.meta for p in rtx_pulls} == set(range(10, 21))
