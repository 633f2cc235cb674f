"""Integration tests for the assembled PPT transport."""

import hashlib

import pytest

from conftest import make_ctx, make_star, run_single_flow
from repro.core.ppt import Ppt, PptReceiver, PptSender
from repro.experiments.runner import run
from repro.experiments.scenarios import (
    all_to_all_scenario,
    incast_scenario,
    sim_fabric,
    sim_qcfg,
    star_fabric,
)
from repro.sim.packet import DATA, Packet
from repro.transport.base import Flow
from repro.transport.dctcp import Dctcp
from repro.workloads.distributions import WEB_SEARCH


def test_flow_completes():
    flow, ctx, _ = run_single_flow(Ppt(), 500_000, until=2.0)
    assert flow.completed


def test_solo_bdp_flow_beats_dctcp():
    """The case-1 LCP loop fills the slow-start gap: a ~BDP-sized flow
    finishes in ~2 RTTs instead of several."""
    f_dctcp, _, _ = run_single_flow(Dctcp(), 80_000)
    f_ppt, _, _ = run_single_flow(Ppt(), 80_000)
    assert f_ppt.fct < f_dctcp.fct * 0.8


def test_large_flow_identified_and_tagged_low(attached):
    flow, ctx, topo = run_single_flow(Ppt(), 5_000_000, until=5.0)
    sender = attached.senders[0]
    assert sender.identified_large
    assert sender.priority_for(0) == 3


def test_small_flow_unidentified_and_tagged_high(attached):
    flow, ctx, topo = run_single_flow(Ppt(), 50_000)
    sender = attached.senders[0]
    assert not sender.identified_large
    assert sender.priority_for(0) == 0


def test_scheduling_off_uses_single_priority(attached):
    flow, ctx, topo = run_single_flow(Ppt(scheduling=False), 5_000_000,
                                      until=5.0)
    sender = attached.senders[0]
    assert sender.priority_for(0) == 0
    assert sender.priority_for(sender.n_packets - 1) == 0


def test_identification_off_treats_all_as_unidentified(attached):
    flow, ctx, topo = run_single_flow(Ppt(identification=False), 5_000_000,
                                      until=5.0)
    sender = attached.senders[0]
    assert not sender.identified_large
    assert sender.priority_for(0) == 0  # starts at the top, ages down


def test_receiver_two_to_one_lp_acks():
    topo = make_star()
    ctx = make_ctx(topo)
    flow = Flow(0, 0, 1, 200_000, 0.0)
    receiver = PptReceiver(flow, ctx)
    for seq in (100, 101, 102):
        pkt = Packet(0, 0, 1, seq, 1500)
        pkt.lcp = True
        receiver.on_packet(pkt)
    assert receiver.lp_pkts_received == 3
    assert receiver.lp_acks_sent == 1  # one ACK per two LP packets


def test_lp_ack_carries_sack_for_both_packets():
    topo = make_star()
    ctx = make_ctx(topo)
    flow = Flow(0, 0, 1, 200_000, 0.0)
    receiver = PptReceiver(flow, ctx)
    captured = []
    ctx.network.send_control = captured.append
    for seq in (50, 51):
        pkt = Packet(0, 0, 1, seq, 1500)
        pkt.lcp = True
        receiver.on_packet(pkt)
    (ack,) = captured
    assert ack.lcp
    assert set(ack.sack) == {50, 51}
    assert ack.priority == 7


def test_lp_ack_ece_if_either_marked():
    topo = make_star()
    ctx = make_ctx(topo)
    receiver = PptReceiver(Flow(0, 0, 1, 200_000, 0.0), ctx)
    captured = []
    ctx.network.send_control = captured.append
    first = Packet(0, 0, 1, 60, 1500)
    first.lcp = True
    first.ecn_ce = True
    second = Packet(0, 0, 1, 61, 1500)
    second.lcp = True
    receiver.on_packet(first)
    receiver.on_packet(second)
    assert captured[0].ecn_ce


def test_completion_via_mixed_hcp_lcp_delivery():
    """Completion counts unique packets regardless of which loop
    delivered them."""
    flow, ctx, topo = run_single_flow(Ppt(), 150_000, until=1.0)
    assert flow.completed
    receiver = topo.network.hosts[1].endpoints[0]
    assert receiver.lp_pkts_received > 0          # LCP contributed
    assert receiver.data_pkts_received >= receiver.n_packets


def test_hcp_packets_ride_p0_to_p3_lcp_p4_to_p7(attached):
    seen = {"hcp": set(), "lcp": set()}
    flow, ctx, topo = run_single_flow(Ppt(), 500_000, until=2.0)
    sender = attached.senders[0]
    for seq in range(sender.n_packets):
        seen["hcp"].add(sender.priority_for(seq))
    assert seen["hcp"] <= {0, 1, 2, 3}


def test_ablated_names():
    assert Ppt().name == "ppt"
    assert Ppt(lcp_ecn=False).name == "ppt-noecn"
    assert Ppt(ewd=False).name == "ppt-noewd"
    assert Ppt(scheduling=False).name == "ppt-nosched"
    assert Ppt(identification=False).name == "ppt-noident"
    assert Ppt(lcp_enabled=False).name == "ppt-nolcp"


def test_nolcp_never_opens_loops(attached):
    flow, ctx, topo = run_single_flow(Ppt(lcp_enabled=False), 300_000,
                                      until=2.0)
    sender = attached.senders[0]
    assert sender.lcp.loops_opened == 0
    assert flow.completed


def test_small_flows_protected_under_large_flow_contention():
    """One elephant + one mouse to the same receiver: the mouse's FCT
    under PPT must be far below the elephant's and close to its solo
    time (scheduling isolates it)."""
    topo = make_star(3)
    ctx = make_ctx(topo)
    scheme = Ppt()
    elephant = Flow(0, 0, 2, 4_000_000, 0.0)
    mouse = Flow(1, 1, 2, 30_000, 100e-6)  # arrives mid-elephant
    scheme.start_flow(elephant, ctx)
    topo.sim.schedule_at(mouse.start_time, scheme.start_flow, mouse, ctx)
    topo.sim.run(until=5.0)
    assert elephant.completed and mouse.completed
    solo_mouse, _, _ = run_single_flow(Ppt(), 30_000)
    assert mouse.fct < 5 * solo_mouse.fct
    assert mouse.fct < elephant.fct / 5


def test_deterministic_repeat():
    f1, _, _ = run_single_flow(Ppt(), 500_000, until=2.0)
    f2, _, _ = run_single_flow(Ppt(), 500_000, until=2.0)
    assert f1.fct == f2.fct


# Fig. 15's smoke cell (15 flows) gives ``ppt-noecn`` and ``ppt-nosched``
# the FCTs of ``ppt`` bit for bit, so it cannot tell a dead flag from a
# live one.  These are the smallest cells found where each flag moves
# the FCTs.


def _fct_sha256(result) -> str:
    digest = hashlib.sha256()
    for flow in sorted(result.flows, key=lambda f: f.flow_id):
        digest.update(f"{flow.flow_id}:{flow.fct!r};".encode())
    return digest.hexdigest()


def test_lcp_ecn_flag_moves_fcts_on_tail_drop_buffers(attached):
    """Tail-drop buffers (``dt_alpha=None``) mark LP-ACKs ECE at 35
    all-to-all Web Search flows (34 mark none): the yield that the
    ``lcp_ecn=False`` ablation removes."""
    def scenario():
        return all_to_all_scenario(
            "ecn-fires", WEB_SEARCH, load=0.5, n_flows=35,
            fabric=sim_fabric(qcfg=sim_qcfg(dt_alpha=None)))

    ppt = run(Ppt(), scenario())
    suppressed = sum(sender.lcp.lp_acks_suppressed
                     for sender in attached.senders.values())
    noecn = run(Ppt(lcp_ecn=False), scenario())
    assert suppressed > 0
    assert _fct_sha256(noecn) != _fct_sha256(ppt)


def test_scheduling_flag_moves_fcts_on_a_small_incast():
    def scenario():
        return incast_scenario("sched-fires", WEB_SEARCH, n_senders=6,
                               load=0.6, n_flows=6, size_cap=200_000,
                               seed=7, fabric=star_fabric(8))

    ppt = run(Ppt(), scenario())
    nosched = run(Ppt(scheduling=False), scenario())
    assert ppt.completed == nosched.completed == 6
    assert _fct_sha256(nosched) != _fct_sha256(ppt)
