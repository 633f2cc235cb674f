"""Tests for the transport framework primitives (Flow, config, context)."""

import dataclasses
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_ctx, make_star
from repro.sim.packet import DATA, HEADER_BYTES
from repro.transport.base import (
    Flow,
    MessageSender,
    Scheme,
    TransportConfig,
    TransportContext,
)


def test_flow_fct_none_until_finished():
    flow = Flow(0, 0, 1, 1000, start_time=1.0)
    assert flow.fct is None
    assert not flow.completed
    flow.finish_time = 1.5
    assert flow.completed
    assert flow.fct == pytest.approx(0.5)


def test_flow_is_slotted_and_still_pickles_and_replaces():
    """One ``Flow`` per flow ever started stays in a run's record:
    slots, no per-instance dict."""
    flow = Flow(3, 0, 1, 5_000, 1e-3, deadline=2e-3)
    flow.finish_time = 1.5e-3
    assert not hasattr(flow, "__dict__")
    assert pickle.loads(pickle.dumps(flow)) == flow
    moved = dataclasses.replace(flow, size=6_000)
    assert (moved.size, moved.fct) == (6_000, flow.fct)


def test_flow_deadline_defaults_none():
    assert Flow(0, 0, 1, 1000, 0.0).deadline is None
    assert Flow(0, 0, 1, 1000, 0.0, deadline=0.1).deadline == 0.1


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=10**8),
       st.integers(min_value=500, max_value=9000))
def test_n_packets_covers_size(size, mss):
    flow = Flow(0, 0, 1, size, 0.0)
    n = flow.n_packets(mss)
    payload = mss - HEADER_BYTES
    assert n * payload >= size
    assert (n - 1) * payload < size or n == 1


def test_config_payload_per_packet():
    cfg = TransportConfig(mss=1500)
    assert cfg.payload_per_packet() == 1500 - HEADER_BYTES


def test_context_completion_callback_and_record():
    topo = make_star()
    seen = []
    ctx = TransportContext(topo.sim, topo.network, TransportConfig(),
                           on_complete=seen.append)
    flow = Flow(0, 0, 1, 1000, 0.0)
    topo.sim.now = 0.25
    ctx.on_complete(flow)
    assert flow.finish_time == 0.25
    assert ctx.completed == [flow]
    assert seen == [flow]


def test_context_bdp_packets_scales_with_rtt_and_rate():
    topo = make_star()
    ctx = make_ctx(topo)
    flow = Flow(0, 0, 1, 1000, 0.0)
    bdp = ctx.bdp_packets(flow)
    expected = int(topo.edge_rate * ctx.base_rtt(flow) / 8.0 // 1500)
    assert bdp == max(1, expected)


def test_scheme_base_is_abstract():
    with pytest.raises(NotImplementedError):
        Scheme().start_flow(Flow(0, 0, 1, 1, 0.0), None)


def test_scheme_configure_network_default_noop():
    topo = make_star()
    Scheme().configure_network(topo.network)  # must not raise


# -- the receiver-driven sender's timeout ----------------------------------


class _TimedSender(MessageSender):
    def __init__(self, flow, ctx):
        super().__init__(flow, ctx)
        self.timeouts = []

    def on_timeout(self):
        self.timeouts.append(self.sim.now)


def _timed_sender(min_rto=1e-3):
    topo = make_star()
    ctx = make_ctx(topo, min_rto=min_rto)
    return _TimedSender(Flow(0, 0, 1, 100_000, 0.0), ctx), topo.sim


def test_sender_timeout_fires_min_rto_after_the_last_arm():
    """Re-arming is a deadline store: the timeout still fires at exactly
    last arm + min_rto (same float), and only a real timeout counts as
    datapath work — the early wake-ups that find the deadline moved do
    not."""
    sender, sim = _timed_sender()
    min_rto = sender.cfg.min_rto
    sender.arm_timer()
    last_arm = 0.0
    for step in (0.3e-3, 0.41e-3, 0.77e-3, 0.123e-3):     # each < min_rto
        sim.run(until=sim.now + step)
        last_arm = sim.now
        sender.arm_timer()
        assert sim.live_pending == 1          # one resident event, ever
        assert sim.pending == 1               # ... and no corpse beside it
    sim.run(until=last_arm + min_rto - 1e-9)
    assert sender.timeouts == []
    assert sender.host.ops_sent == 0
    sim.run(until=last_arm + min_rto)
    assert sender.timeouts == [last_arm + min_rto]
    assert sender.host.ops_sent == 1
    # the timeout re-arms itself: no backoff, min_rto again
    sim.run(until=last_arm + 2 * min_rto)
    assert sender.timeouts == [last_arm + min_rto,
                               last_arm + min_rto + min_rto]
    assert sender.host.ops_sent == 2


def test_stopped_sender_leaves_no_live_timer():
    sender, sim = _timed_sender()
    sender.arm_timer()
    sim.run(until=0.4e-3)
    sender.arm_timer()
    sender.stop()
    assert sim.live_pending == 0
    sender.arm_timer()                        # a late grant: stays disarmed
    assert sim.live_pending == 0
    sim.run()
    assert sender.timeouts == []
    assert sender.host.ops_sent == 0


# -- the receiver-driven sender's data-packet builder ----------------------


@st.composite
def _sized_flows(draw):
    mss = draw(st.sampled_from([HEADER_BYTES + 1, 576, 1500, 9000]))
    # 1 byte to 3000 packets (4.3 MB at the default MSS), so the last
    # packet is a partial one of every possible length
    return mss, draw(st.integers(1, 3000 * (mss - HEADER_BYTES)))


@settings(max_examples=40, deadline=None)
@given(_sized_flows())
def test_send_data_sizes_every_seq_like_the_min_max_spelling(case):
    """``send_data`` reads its constants once and sizes a full packet
    with one comparison; every seq of the flow — and two past its end,
    which only the ``max(1, ..)`` floor covers — must get the wire size
    of ``min(mss, max(1, remaining) + HEADER_BYTES)``."""
    mss, size = case
    sender = MessageSender(Flow(7, 0, 1, size, 0.0),
                           make_ctx(make_star(), mss=mss))
    wire = []
    sender.host.uplink = type("Nic", (), {"send": staticmethod(wire.append)})()
    payload = mss - HEADER_BYTES
    n = sender.n_packets
    for seq in range(n + 2):
        sender.send_data(seq, 3)
    assert [pkt.size for pkt in wire] == [
        min(mss, max(1, size - seq * payload) + HEADER_BYTES)
        for seq in range(n + 2)]
    assert sum(pkt.size - HEADER_BYTES for pkt in wire[:n]) == size
    assert {(pkt.flow_id, pkt.src, pkt.dst, pkt.kind, pkt.priority,
             pkt.ecn_capable) for pkt in wire} == {(7, 0, 1, DATA, 3, False)}
    assert [pkt.seq for pkt in wire] == list(range(n + 2))
