"""A finished window sender is retired (``TransportContext.retire``): its
counters go into its flow's row of the run's ``FlowTable``, its host
forgets it, and it is freed while the drain still holds the GC off —
per-flow memory tracks the flows in flight, not the flows seen."""

import dataclasses
import gc

import pytest

from conftest import run_single_flow
from repro.core.ppt import Ppt
from repro.experiments.runner import run
from repro.experiments.scenarios import (SCHEMES, all_to_all_scenario,
                                         sim_config)
from repro.metrics.flowtable import UNFINISHED
from repro.sim.packet import Packet
from repro.transport.base import Flow
from repro.transport.dctcp import Dctcp
from repro.transport.window import TailLoop, WindowSender
from repro.workloads.distributions import MEMCACHED_W1
from test_golden_fingerprints import CELLS


def _memcached_churn(n_flows):
    return all_to_all_scenario(
        "retire-churn", MEMCACHED_W1, load=0.5, n_flows=n_flows,
        size_cap=None, stream=True, seed=3,
        config=sim_config(demotion_thresholds=(2_000, 10_000, 30_000),
                          identification_threshold=30_000))


def test_retired_senders_are_freed_during_the_drain():
    """Reference counting alone frees every finished sender and its
    loop: no sender<->loop cycle and no timer handle keeps one alive
    for a collection that a GC-free drain never runs."""
    gc.collect()
    gc.disable()
    try:
        result = run(Ppt(), _memcached_churn(2_000))
        senders = sum(isinstance(o, WindowSender) for o in gc.get_objects())
        loops = sum(isinstance(o, TailLoop) for o in gc.get_objects())
    finally:
        gc.enable()
    assert result.completed == 2_000
    assert result.ctx.retired == 2_000
    assert all(result.table.pkts_sent) and all(result.table.acks)
    assert (senders, loops) == (0, 0)
    # the receivers stay: a late duplicate is still counted and ACKed
    receivers = [end for host in result.topology.network.hosts.values()
                 for end in host.endpoints.values()]
    assert len(receivers) == 2_000
    assert not any(isinstance(end, WindowSender) for end in receivers)


def test_late_duplicate_is_counted_and_its_ack_discarded(attached):
    flow, ctx, topo = run_single_flow(Dctcp(), 20_000)
    sender, receiver = attached.senders[0], attached.receivers[0]
    src, dst = topo.network.hosts[0], topo.network.hosts[1]
    assert sender.finished and 0 not in src.endpoints
    acks, ops = sender.acks_received, src.ops_received
    dst.receive(Packet(0, 0, 1, 0, 1500))
    topo.sim.run(until=topo.sim.now + 1e-3)
    assert receiver.dup_pkts_received == 1
    # the ACK reached the source host, which no longer hands it to the
    # sender, exactly as a closed socket
    assert src.ops_received == ops + 1
    assert sender.acks_received == acks


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
    sender = attached.senders[0]
    assert sender.lcp.sender is None          # the cycle is broken
    # retirement wrote the sender's six columns; the rest wait for the
    # harvest
    assert _row(ctx.table, 0) == (
        0, 300_000, UNFINISHED, sender.pkts_retransmitted,
        sender.rtos_fired, sender.pkts_transmitted,
        sender.lcp.lp_pkts_sent, 0, 0, sender.acks_received,
        sender.lcp.loops_opened, 0, 0)
    assert sender.lcp.lp_pkts_sent > 0 and sender.acks_received > 0


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
