"""Tests for the HPCC INT-driven transport."""

import pytest

from conftest import make_ctx, make_star, run_single_flow
from repro.transport.base import Flow
from repro.transport.hpcc import Hpcc, HpccSender


def make_sender(**cfg):
    topo = make_star()
    ctx = make_ctx(topo, **cfg)
    return HpccSender(Flow(0, 0, 1, 1_000_000, 0.0), ctx), topo


def test_starts_at_bdp():
    sender, topo = make_sender()
    bdp = sender.ctx.bdp_packets(sender.flow)
    assert sender.cwnd == pytest.approx(float(bdp))


def test_data_packets_carry_int():
    sender, _ = make_sender()
    pkt = sender.build_packet(0)
    assert pkt.int_records == []


def test_switches_stamp_int(attached):
    flow, ctx, topo = run_single_flow(Hpcc(), 10_000)
    # after the run, the sender saw INT from the single switch hop
    sender = attached.senders[0]
    assert sender._prev  # at least one hop's history retained


def test_utilisation_from_two_samples():
    sender, topo = make_sender()
    rate = 40e9
    # hop 0: 12KB queued, 100KB sent at t=0 then 150KB at t=10us
    first = sender._utilisation([(12_000, 100_000, 0.0, rate)])
    assert first is None  # no previous sample yet
    u = sender._utilisation([(12_000, 150_000, 10e-6, rate)])
    # txRate = 50KB*8/10us = 40G -> rate term = 1.0; queue term > 0
    assert u is not None and u > 1.0


def test_window_shrinks_when_overutilised():
    sender, _ = make_sender()
    sender.w_c = sender.cwnd = 50.0
    rate = 40e9
    sender._pending_int = None
    sender._prev = {0: (0, 0.0)}
    # 100% utilisation + big queue -> strong decrease
    sender._pending_int = [(100_000, 50_000, 10e-6, rate)]
    sender.cc_on_ack(False, 1e-5)
    assert sender.cwnd < 50.0


def test_window_probes_when_underutilised():
    sender, _ = make_sender()
    sender.w_c = sender.cwnd = 10.0
    rate = 40e9
    sender._prev = {0: (0, 0.0)}
    sender._pending_int = [(0, 1_000, 10e-6, rate)]  # nearly idle
    sender.cc_on_ack(False, 1e-5)
    assert sender.cwnd > 10.0


def test_not_ecn_capable():
    sender, _ = make_sender()
    assert not sender.ecn_capable()


def test_end_to_end_completion():
    flow, ctx, _ = run_single_flow(Hpcc(), 2_000_000, until=5.0)
    assert flow.completed


def test_two_flows_converge_and_complete():
    topo = make_star(3)
    ctx = make_ctx(topo)
    scheme = Hpcc()
    flows = [Flow(0, 0, 2, 500_000, 0.0), Flow(1, 1, 2, 500_000, 0.0)]
    for f in flows:
        scheme.start_flow(f, ctx)
    topo.sim.run(until=5.0)
    assert all(f.completed for f in flows)


# ---------------------------------------------------------------------------
# INT-on-ACK regression: the ACK must carry a *snapshot* of the forward
# path's INT, and reverse-path switches must not stamp it
# ---------------------------------------------------------------------------


def test_make_ack_snapshots_int_records():
    from repro.sim.packet import DATA, Packet, make_ack

    data = Packet(flow_id=3, src=0, dst=1, seq=5, size=1500, kind=DATA)
    data.int_records = [(1000, 50_000, 1e-5, 40e9)]
    ack = make_ack(data, ack_seq=6)
    assert ack.int_records == data.int_records
    # aliasing regression: growing the data packet's record list (as a
    # later hop would) must not leak into the already-built ACK
    data.int_records.append((2000, 60_000, 2e-5, 40e9))
    assert len(ack.int_records) == 1


def test_dumbbell_ack_carries_exactly_forward_path_int():
    from conftest import quick_qcfg
    from repro.sim.packet import ACK
    from repro.sim.topology import dumbbell
    from repro.units import gbps, us

    topo = dumbbell(rate=gbps(10), prop_delay=us(5), qcfg=quick_qcfg())
    scheme = Hpcc()
    scheme.configure_network(topo.network)
    ctx = make_ctx(topo)
    flow = Flow(0, 0, 1, 100_000, 0.0)
    scheme.start_flow(flow, ctx)
    sender = topo.network.hosts[0].endpoints[0]

    captured = []
    original = sender.on_packet

    def spy(pkt):
        if pkt.kind == ACK and pkt.int_records is not None:
            captured.append(len(pkt.int_records))
        original(pkt)

    sender.on_packet = spy
    topo.sim.run(until=2.0)

    assert flow.completed
    assert captured
    # forward path host0 -> sw0 -> sw1 -> host1 crosses exactly two
    # switches; a reverse-path stamp (the old bug) would make this 4
    assert set(captured) == {2}
