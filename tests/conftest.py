"""Shared fixtures and helpers for the test suite.

The helpers build tiny fabrics (2-8 hosts, short RTTs) so individual
tests run in milliseconds while still exercising the full packet path.
"""

from __future__ import annotations

import pytest

from repro.sim.network import Network, QueueConfig
from repro.sim.topology import Topology, dumbbell, leaf_spine, star
from repro.transport.base import Flow, TransportConfig, TransportContext
from repro.units import gbps, us


def quick_qcfg(buffer_bytes: int = 120_000) -> QueueConfig:
    return QueueConfig(buffer_bytes=buffer_bytes,
                       ecn_thresholds=[96_000] * 4 + [86_000] * 4)


def make_star(n_hosts: int = 4, rate=gbps(40), prop=us(4),
              qcfg: QueueConfig = None) -> Topology:
    return star(n_hosts, rate=rate, prop_delay=prop,
                qcfg=qcfg or quick_qcfg())


def make_leaf_spine(**overrides) -> Topology:
    params = dict(n_leaf=2, n_spine=2, hosts_per_leaf=2,
                  edge_rate=gbps(40), core_rate=gbps(100),
                  prop_delay=us(2), qcfg=quick_qcfg())
    params.update(overrides)
    return leaf_spine(**params)


def switch_hops(net: Network) -> int:
    """Forwarding decisions the fabric's switches made so far: after one
    packet crossed it, the number of switches on its path."""
    return sum(switch.pkts_forwarded for switch in net.switches)


def make_ctx(topo: Topology, **config_overrides) -> TransportContext:
    params = dict(min_rto=1e-3)
    params.update(config_overrides)
    return TransportContext(topo.sim, topo.network,
                            TransportConfig(**params))


def run_single_flow(scheme, size: int, *, topo: Topology = None,
                    src: int = 0, dst: int = 1, until: float = 1.0,
                    **config_overrides):
    """Run one flow of ``size`` bytes to completion; returns (flow, ctx,
    topo).  The flow has its row in ``ctx.table``, as a run's would."""
    topo = topo or make_star()
    scheme.configure_network(topo.network)
    ctx = make_ctx(topo, **config_overrides)
    flow = Flow(0, src, dst, size, 0.0)
    ctx.table.add(flow)
    scheme.start_flow(flow, ctx)
    topo.sim.run(until=until)
    return flow, ctx, topo


class Attached:
    """The endpoints ``Network.attach`` registered, by flow id.  A run
    retires a window sender from its host once its flow is delivered
    (``TransportContext.retire``), so a test that inspects a finished
    sender reads it here, not from ``host.endpoints``."""

    def __init__(self) -> None:
        self.senders: dict = {}
        self.receivers: dict = {}


@pytest.fixture
def attached(monkeypatch) -> Attached:
    record = Attached()
    attach = Network.attach

    def recording_attach(network, flow_id, src, dst, sender, receiver):
        record.senders[flow_id] = sender
        record.receivers[flow_id] = receiver
        attach(network, flow_id, src, dst, sender, receiver)

    monkeypatch.setattr(Network, "attach", recording_attach)
    return record


@pytest.fixture
def star4() -> Topology:
    return make_star(4)


@pytest.fixture
def ls_topo() -> Topology:
    return make_leaf_spine()
