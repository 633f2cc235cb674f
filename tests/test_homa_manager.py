"""Unit tests for Homa's per-host receiver manager internals."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_ctx, make_star
from repro.sim.packet import GRANT, Packet
from repro.transport.base import Flow
from repro.transport.homa import Homa, HomaReceiverHost, _MsgState


def make_manager(overcommit=2, rtt_bytes=45_000):
    topo = make_star(4)
    ctx = make_ctx(topo)
    scheme = Homa(rtt_bytes=rtt_bytes, overcommit=overcommit)
    manager = HomaReceiverHost(3, ctx, scheme)
    return manager, ctx, topo, scheme


def add_message(manager, ctx, flow_id, size, src=0):
    flow = Flow(flow_id, src, 3, size, 0.0)
    manager.add_message(flow)
    return flow


def test_initial_grant_covers_unscheduled_window():
    manager, ctx, topo, scheme = make_manager()
    flow = add_message(manager, ctx, 0, 1_000_000)
    state = manager.messages[0]
    assert state.granted == scheme.rtt_packets(flow, ctx)


def test_small_message_fully_granted_at_open():
    manager, ctx, topo, scheme = make_manager()
    add_message(manager, ctx, 0, 10_000)
    state = manager.messages[0]
    assert state.granted == state.n_packets


def test_srpt_ranking_prefers_fewest_remaining():
    manager, ctx, topo, scheme = make_manager()
    add_message(manager, ctx, 0, 2_000_000)
    add_message(manager, ctx, 1, 100_000, src=1)
    ranked = manager._ranked()
    assert ranked[0].flow.flow_id == 1
    assert ranked[1].flow.flow_id == 0


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([1_000, 3_000, 40_000, 2_000_000]),
                          st.integers(0, 30)),
                max_size=6),
       st.randoms(use_true_random=False))
def test_ranking_matches_the_sorted_spelling(table, rng):
    """``_ranked`` skips the sort for a table of fewer than two messages
    and keys without the ``remaining`` property otherwise; on any table
    (ties in remaining included, flow ids in any insertion order) it is
    ``sorted(key=(remaining, flow_id))``."""
    manager, ctx, topo, scheme = make_manager()
    flow_ids = list(range(len(table)))
    rng.shuffle(flow_ids)
    for flow_id, (size, delivered) in zip(flow_ids, table):
        add_message(manager, ctx, flow_id, size, src=flow_id % 3)
        state = manager.messages[flow_id]
        for seq in range(min(delivered, state.n_packets - 1)):
            state.deliver(seq)
    assert manager._ranked() == sorted(
        manager.messages.values(),
        key=lambda m: (m.n_packets - len(m.delivered), m.flow.flow_id))


def test_regrant_extends_top_k_only():
    manager, ctx, topo, scheme = make_manager(overcommit=1)
    add_message(manager, ctx, 0, 2_000_000)
    add_message(manager, ctx, 1, 1_500_000, src=1)
    sent = []
    ctx.network.send_control = sent.append
    # deliver one packet of the larger message: triggers regrant
    pkt = Packet(1, 1, 3, 0, 1500)
    manager.on_data(pkt)
    # only the SRPT-best (flow 1, smaller remaining) may have been granted
    granted_flows = {g.flow_id for g in sent if g.kind == GRANT}
    assert granted_flows <= {1}


def test_completion_sends_final_grant_and_cleans_up():
    manager, ctx, topo, scheme = make_manager()
    flow = add_message(manager, ctx, 0, 2_000)  # 2 packets
    sent = []
    ctx.network.send_control = sent.append
    manager.on_data(Packet(0, 0, 3, 0, 1500))
    manager.on_data(Packet(0, 0, 3, 1, 1500))
    assert flow.completed
    assert 0 not in manager.messages
    finals = [g for g in sent if g.kind == GRANT and g.meta[3]]
    assert len(finals) == 1


def test_duplicate_data_ignored():
    manager, ctx, topo, scheme = make_manager()
    add_message(manager, ctx, 0, 10_000)
    manager.on_data(Packet(0, 0, 3, 0, 1500))
    state = manager.messages[0]
    before = len(state.delivered)
    manager.on_data(Packet(0, 0, 3, 0, 1500))
    assert len(state.delivered) == before


def test_missing_detection_with_cooldown():
    manager, ctx, topo, scheme = make_manager()
    add_message(manager, ctx, 0, 20_000)  # 14 packets
    state = manager.messages[0]
    for seq in (0, 1, 5):
        state.deliver(seq)
    assert state.cum == 2
    missing = manager._missing(state)
    assert missing == [2, 3, 4]
    # immediately re-asking is suppressed by the per-seq cooldown
    assert manager._missing(state) == []


def test_probe_grants_all_holes():
    manager, ctx, topo, scheme = make_manager()
    add_message(manager, ctx, 0, 20_000)
    state = manager.messages[0]
    for seq in (1, 3):
        state.deliver(seq)
    assert state.cum == 0
    sent = []
    ctx.network.send_control = sent.append
    probe = Packet(0, 0, 3, 10, 64)
    manager.on_control(probe)
    (grant,) = sent
    _granted, missing, _prio, final = grant.meta
    assert 0 in missing and 2 in missing
    assert 1 not in missing and 3 not in missing
    assert not final
