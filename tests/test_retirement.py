"""A finished window sender is retired (``TransportContext.retire``), and
its receiver once nothing of the flow is left on the fabric
(``TransportContext.retire_receiver``): their counters go into the
flow's row of the run's ``FlowTable``, their hosts forget them, and they
are freed while the drain still holds the GC off — per-flow memory
tracks the flows in flight, not the flows seen."""

import dataclasses
import gc

import pytest

from conftest import make_ctx, run_single_flow
from repro.core.ppt import Ppt
from repro.experiments.runner import run
from repro.experiments.scenarios import (SCHEMES, all_to_all_scenario,
                                         sim_config)
from repro.metrics.flowtable import UNFINISHED
from repro.sim.network import QueueConfig
from repro.sim.packet import Packet
from repro.sim.topology import star
from repro.transport.base import Flow, TransportContext
from repro.transport.dctcp import Dctcp
from repro.transport.window import TailLoop, WindowReceiver, WindowSender
from repro.units import gbps, us
from repro.workloads.distributions import MEMCACHED_W1
from test_golden_fingerprints import CELLS


def _memcached_churn(n_flows):
    return all_to_all_scenario(
        "retire-churn", MEMCACHED_W1, load=0.5, n_flows=n_flows,
        size_cap=None, stream=True, seed=3,
        config=sim_config(demotion_thresholds=(2_000, 10_000, 30_000),
                          identification_threshold=30_000))


@pytest.fixture(scope="module")
def churn():
    """A 2,000-flow streamed PPT Memcached run with the GC held off, and
    the window senders, second loops and window receivers still alive
    after it."""
    gc.collect()
    gc.disable()
    try:
        result = run(Ppt(), _memcached_churn(2_000))
        alive = {cls: sum(isinstance(o, cls) for o in gc.get_objects())
                 for cls in (WindowSender, TailLoop, WindowReceiver)}
    finally:
        gc.enable()
    return result, alive


def test_retired_senders_are_freed_during_the_drain(churn):
    """Reference counting alone frees every finished sender and its
    loop: no sender<->loop cycle and no timer handle keeps one alive
    for a collection that a GC-free drain never runs."""
    result, alive = churn
    assert result.completed == 2_000
    assert result.ctx.retired == 2_000
    assert all(result.table.pkts_sent) and all(result.table.acks)
    assert (alive[WindowSender], alive[TailLoop]) == (0, 0)
    assert not any(isinstance(end, WindowSender)
                   for host in result.topology.network.hosts.values()
                   for end in host.endpoints.values())


def test_only_receivers_of_flows_that_lost_a_packet_stay(churn):
    """A receiver retires once every packet its sender put on the fabric
    has arrived; one whose flow lost a packet never sees that count and
    stays for the harvest.  The retired ones are freed during the drain
    too."""
    result, alive = churn
    table = result.table
    registered = sorted(flow_id
                        for host in result.topology.network.hosts.values()
                        for flow_id in host.endpoints)
    lossy = [table.flow_id[row] for row in range(len(table))
             if table.pkts_received[row] != table.pkts_sent[row]]
    assert registered == sorted(lossy)
    assert 0 < len(lossy) < 100
    assert all(table.pkts_received[row] < table.pkts_sent[row]
               for row in range(len(table))
               if table.flow_id[row] in lossy)
    assert alive[WindowReceiver] == len(registered)


def test_late_duplicate_is_counted_and_its_ack_discarded(attached):
    flow, ctx, topo = run_single_flow(Dctcp(), 20_000)
    sender, receiver = attached.senders[0], attached.receivers[0]
    src, dst = topo.network.hosts[0], topo.network.hosts[1]
    assert sender.finished and 0 not in src.endpoints
    acks, ops = sender.acks_received, src.ops_received
    # a duplicate of a retired flow no longer reaches its receiver
    # through the host; hand it over directly
    receiver.on_packet(Packet(0, 0, 1, 0, 1500))
    topo.sim.run(until=topo.sim.now + 1e-3)
    assert receiver.dup_pkts_received == 1
    # the ACK reached the source host, which no longer hands it to the
    # sender, exactly as a closed socket
    assert src.ops_received == ops + 1
    assert sender.acks_received == acks
    # the receiver retired before the duplicate: its row is not re-read
    assert 0 not in dst.endpoints
    assert ctx.table.dup_pkts_received[0] == 0


def test_duplicate_in_flight_at_sender_retirement(attached, monkeypatch):
    """An RTO shorter than the RTT re-sends a one-packet flow's packet
    while the first copy is still on its way: the sender retires on the
    first ACK with copies on the fabric.  Each copy is counted and ACKed
    by the live receiver, which retires when the last one lands."""
    at_retirement = []
    retire = TransportContext.retire

    def spy(ctx, sender):
        retire(ctx, sender)
        dst = ctx.network.hosts[sender.flow.dst]
        at_retirement.append((0 in dst.endpoints, sender.pkts_transmitted,
                              attached.receivers[0].data_pkts_received))

    monkeypatch.setattr(TransportContext, "retire", spy)
    flow, ctx, topo = run_single_flow(Dctcp(), 1_000, min_rto=5e-6,
                                      max_rto=5e-6)
    sender, receiver = attached.senders[0], attached.receivers[0]
    [(registered, sent, received)] = at_retirement
    assert registered and received < sent
    assert 0 not in topo.network.hosts[1].endpoints
    assert receiver.data_pkts_received == sent
    assert receiver.dup_pkts_received == sent - 1
    # every copy was ACKed: the ACKs the sender did not read reached its
    # host all the same
    assert topo.network.hosts[0].ops_received == sent
    assert _row(ctx.table, 0)[-6:] == (sent, 0, sender.acks_received, 0,
                                       sent - 1, 0)


def test_a_flow_that_lost_a_packet_keeps_its_receiver_to_the_harvest():
    """Two flows into one host overflow a ten-packet buffer and lose
    packets; a third flow elsewhere loses none.  The third flow's
    receiver retires as its flow ends; the lossy flows' receivers stay
    registered, and the harvest reads them."""
    qcfg = QueueConfig(buffer_bytes=15_000)
    topo = star(4, rate=gbps(40), prop_delay=us(4), qcfg=qcfg)
    ctx = make_ctx(topo)
    flows = [Flow(0, 0, 2, 300_000, 0.0), Flow(1, 1, 2, 300_000, 0.0),
             Flow(2, 3, 0, 300_000, 0.0)]
    for flow in flows:
        ctx.table.add(flow)
        Dctcp().start_flow(flow, ctx)
    topo.sim.run(until=2.0)
    assert all(flow.completed for flow in flows)
    table, hosts = ctx.table, topo.network.hosts
    assert all(table.retransmits[row] > 0 for row in (0, 1))
    assert table.retransmits[2] == 0
    lossy = [hosts[2].endpoints[0], hosts[2].endpoints[1]]
    assert 2 not in hosts[0].endpoints
    assert table.pkts_received[2] == table.pkts_sent[2]
    assert list(table.pkts_received[:2]) == [0, 0]
    table.harvest(flows, topo.network)
    assert list(table.pkts_received[:2]) == [
        receiver.data_pkts_received for receiver in lossy]
    assert all(table.pkts_received[row] < table.pkts_sent[row]
               for row in (0, 1))


def test_retire_leaves_an_unregistered_sender_alone(attached):
    flow, ctx, topo = run_single_flow(Dctcp(), 20_000)
    assert ctx.retired == 1
    row = _row(ctx.table, 0)
    stray_flow = Flow(7, 0, 1, 1_000, 0.0)
    ctx.table.add(stray_flow)
    stray = Dctcp().make_sender(stray_flow, ctx)
    stray.stop()
    ctx.retire(stray)
    assert ctx.retired == 1
    assert _row(ctx.table, 0) == row
    assert _row(ctx.table, 1) == (7, 1_000, UNFINISHED) + (0,) * 10


def test_retired_sender_writes_its_table_row(attached):
    flow, ctx, topo = run_single_flow(Ppt(), 300_000, until=1.0)
    sender, receiver = attached.senders[0], attached.receivers[0]
    assert sender.lcp.sender is None          # the cycle is broken
    # retirement wrote the sender's six columns and, with every packet
    # arrived, the receiver's four; only the FCT waits for the harvest
    assert 0 not in topo.network.hosts[1].endpoints
    assert _row(ctx.table, 0) == (
        0, 300_000, UNFINISHED, sender.pkts_retransmitted,
        sender.rtos_fired, sender.pkts_transmitted,
        sender.lcp.lp_pkts_sent, receiver.data_pkts_received,
        receiver.lp_pkts_received, sender.acks_received,
        sender.lcp.loops_opened, receiver.dup_pkts_received,
        receiver.lp_dup_pkts_received)
    assert sender.lcp.lp_pkts_sent > 0 and sender.acks_received > 0
    assert receiver.lp_pkts_received > 0


def _row(table, i):
    return tuple(getattr(table, f.name)[i]
                 for f in dataclasses.fields(table))


@pytest.mark.parametrize("cell", ["halfback-star-incast", "halfback-loss"])
def test_halfback_retires_on_a_redundancy_ack(cell):
    """Halfback can complete a flow on the ACK of a backwards redundant
    copy; that completion retires the sender like the other two."""
    key, scenario_factory = CELLS[cell]
    result = run(SCHEMES[key](), scenario_factory())
    finished = [end for host in result.topology.network.hosts.values()
                for end in host.endpoints.values()
                if isinstance(end, WindowSender) and end.finished]
    assert result.completed == result.ctx.retired == 60
    assert finished == []
