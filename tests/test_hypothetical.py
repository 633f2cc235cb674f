"""Tests for the hypothetical DCTCP construction (§2.3)."""

import pytest

from conftest import make_ctx, make_star, run_single_flow
from repro.core.hypothetical import HypotheticalDctcp, MwRecordingDctcp
from repro.transport.base import Flow
from repro.transport.dctcp import Dctcp


def test_recording_pass_stores_mw():
    recorder = MwRecordingDctcp()
    flow, ctx, _ = run_single_flow(recorder, 300_000, until=2.0)
    assert flow.completed
    assert 0 in recorder.mw_table
    assert recorder.mw_table[0] > 0


def test_hypothetical_uses_recorded_mw():
    recorder = MwRecordingDctcp()
    run_single_flow(recorder, 300_000, until=2.0)
    scheme = HypotheticalDctcp(recorder.mw_table)
    flow, ctx, _ = run_single_flow(scheme, 300_000, until=2.0)
    assert flow.completed


def test_unknown_flow_falls_back_to_init_cwnd():
    scheme = HypotheticalDctcp({})
    flow, ctx, _ = run_single_flow(scheme, 100_000, until=1.0)
    assert flow.completed


def test_fill_factor_names():
    assert HypotheticalDctcp({}, 1.0).name == "hypothetical-dctcp"
    assert HypotheticalDctcp({}, 0.5).name == "hypothetical-dctcp-50"
    assert HypotheticalDctcp({}, 1.5).name == "hypothetical-dctcp-150"


def test_filler_target_capped_at_path_capacity():
    topo = make_star()
    ctx = make_ctx(topo)
    from repro.core.hypothetical import _HypotheticalSender
    sender = _HypotheticalSender(Flow(0, 0, 1, 1_000_000, 0.0), ctx,
                                 mw=10_000.0, fill_factor=1.0)
    assert sender.target_window <= 2.0 * ctx.bdp_packets(sender.flow)


def test_hypothetical_not_slower_than_dctcp_solo():
    f_dctcp, _, _ = run_single_flow(Dctcp(), 200_000, until=2.0)
    recorder = MwRecordingDctcp()
    run_single_flow(recorder, 200_000, until=2.0)
    f_hypo, _, _ = run_single_flow(HypotheticalDctcp(recorder.mw_table),
                                   200_000, until=2.0)
    assert f_hypo.fct <= f_dctcp.fct * 1.1


def test_filler_is_ecn_blind():
    """The oracle fills to its target regardless of ECE marks — that is
    what makes the Fig. 3 overfill sweep hurt."""
    topo = make_star()
    ctx = make_ctx(topo)
    from repro.core.hypothetical import _HypotheticalSender
    from repro.sim.packet import ACK, Packet
    sender = _HypotheticalSender(Flow(0, 0, 1, 1_000_000, 0.0), ctx,
                                 mw=50.0, fill_factor=1.0)
    ack = Packet(0, 1, 0, 5, 64, kind=ACK)
    ack.lcp = True
    ack.ecn_ce = True
    ack.ack_seq = 0
    sender.on_packet(ack)  # must not raise nor install any throttle
    assert not hasattr(sender, "_suppress_until")
    assert 5 in sender.delivered


def test_stop_cancels_the_paced_fill():
    """The filler's paced sends used to stay in the heap after the flow
    finished and fire as no-ops."""
    topo = make_star()
    ctx = make_ctx(topo)
    from repro.core.hypothetical import _HypotheticalSender
    sender = _HypotheticalSender(Flow(0, 0, 1, 1_000_000, 0.0), ctx,
                                 mw=50.0, fill_factor=1.0)
    topo.network.hosts[0].register(0, sender)
    sender.start()
    topo.sim.run(until=sender.base_rtt / 2)      # mid-burst
    sent = sender.lcp.lp_pkts_sent
    assert 0 < sent < 40
    sender.stop()

    def owner(fn):
        return getattr(fn, "__self__", None)

    assert not [fn for _time, fn, _args in topo.sim.live_entries()
                if owner(fn) is sender or owner(owner(fn)) is sender]
    assert not sender.lcp.active and not sender.lcp.outstanding
    topo.sim.run(until=sender.base_rtt * 3)
    assert sender.lcp.lp_pkts_sent == sent
