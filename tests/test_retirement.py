"""A finished window sender is retired (``TransportContext.retire``): its
counters go to the run's ``SenderLedger``, its host forgets it, and it
is freed while the drain still holds the GC off — per-flow memory
tracks the flows in flight, not the flows seen."""

import gc

from conftest import run_single_flow
from repro.core.ppt import Ppt
from repro.experiments.runner import run
from repro.experiments.scenarios import all_to_all_scenario, sim_config
from repro.sim.packet import Packet
from repro.transport.base import Flow
from repro.transport.dctcp import Dctcp
from repro.transport.window import TailLoop, WindowSender
from repro.workloads.distributions import MEMCACHED_W1


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
    assert len(result.ctx.retired) == 2_000
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
    assert list(ctx.retired.flow_id) == [0]
    stray = Dctcp().make_sender(Flow(7, 0, 1, 1_000, 0.0), ctx)
    stray.stop()
    ctx.retire(stray)
    assert list(ctx.retired.flow_id) == [0]


def test_ledger_row_is_what_the_table_reads(attached):
    flow, ctx, topo = run_single_flow(Ppt(), 300_000, until=1.0)
    sender = attached.senders[0]
    assert sender.lcp.sender is None          # the cycle is broken
    assert [tuple(getattr(ctx.retired, name))
            for name in ("flow_id", "pkts_sent", "retransmits", "rtos",
                         "lp_pkts_sent", "acks", "lp_loops")] == [
        (0,), (sender.pkts_transmitted,), (sender.pkts_retransmitted,),
        (sender.rtos_fired,), (sender.lcp.lp_pkts_sent,),
        (sender.acks_received,), (sender.lcp.loops_opened,)]
    assert sender.lcp.lp_pkts_sent > 0 and sender.acks_received > 0
