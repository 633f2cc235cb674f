"""Topology builders.

Three shapes cover every experiment in the paper:

* :func:`star` — N hosts on one switch.  Stands in for the CloudLab
  testbed (15 hosts, one Dell S4048) and for the 2-sender microbenchmarks
  of Figs. 1, 20, 28 and 29 (the bottleneck is the receiver's downlink).
* :func:`leaf_spine` — the 1.4:1 oversubscribed 144-host fabric of §6.2
  (9 leaves x 16 hosts, 4 spines, 40G edge / 100G core), parameterised so
  the 100/400G variant (Fig. 22) and the non-oversubscribed variant
  (appendix E: 10G edge / 40G core, 16 hosts per leaf) are one call away.
* :func:`dumbbell` — two hosts through two switches over one bottleneck
  link, handy for unit tests.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from ..units import gbps, us
from .engine import Simulator
from .network import Network, QueueConfig


@dataclass
class Topology:
    """A built fabric plus the parameters it was built with."""

    sim: Simulator
    network: Network
    n_hosts: int
    edge_rate: float
    core_rate: float
    base_rtt: float  # worst-case (cross-leaf) base round-trip time

    def host_ids(self):
        return list(self.network.hosts.keys())


def _default_qcfg(buffer_bytes: int, base_rtt: float) -> QueueConfig:
    return QueueConfig(
        buffer_bytes=buffer_bytes,
        ecn_lambda_high=0.17,
        ecn_lambda_low=0.1,
        base_rtt=base_rtt,
    )


# Host NIC egress queues model the Linux qdisc: megabytes of buffering,
# no ECN marking (DCTCP's signal comes from switches) and no dynamic
# threshold.  Slow-start overshoot queues at the sender instead of being
# dropped by a 120KB switch-sized buffer that no NIC actually has.
HOST_BUFFER_BYTES = 4_000_000


def _host_qcfg(buffer_bytes: int = HOST_BUFFER_BYTES) -> QueueConfig:
    return QueueConfig(buffer_bytes=buffer_bytes, dt_alpha=None)


def star(
    n_hosts: int,
    *,
    rate: float = gbps(10),
    prop_delay: float = us(20),
    buffer_bytes: int = 500_000,
    qcfg: Optional[QueueConfig] = None,
    sim: Optional[Simulator] = None,
) -> Topology:
    """N hosts attached to a single switch."""
    sim = sim or Simulator()
    net = Network(sim)
    switch = net.add_switch("sw0")
    # host -> switch -> host: 2 links each way.
    base_rtt = 4 * prop_delay + 4 * (1500 * 8.0 / rate)
    if qcfg is None:
        qcfg = _default_qcfg(buffer_bytes, base_rtt)
    host_qcfg = _host_qcfg()
    for host_id in range(n_hosts):
        host = net.add_host(host_id)
        net.connect_host(host, switch, rate, prop_delay, qcfg,
                         up_qcfg=host_qcfg)
    return Topology(sim, net, n_hosts, rate, rate, base_rtt)


def dumbbell(
    *,
    rate: float = gbps(10),
    bottleneck_rate: Optional[float] = None,
    prop_delay: float = us(10),
    buffer_bytes: int = 250_000,
    qcfg: Optional[QueueConfig] = None,
    sim: Optional[Simulator] = None,
) -> Topology:
    """host0 - sw0 - sw1 - host1 with a possibly slower middle link."""
    sim = sim or Simulator()
    net = Network(sim)
    bottleneck_rate = bottleneck_rate or rate
    base_rtt = 6 * prop_delay + 6 * (1500 * 8.0 / min(rate, bottleneck_rate))
    if qcfg is None:
        qcfg = _default_qcfg(buffer_bytes, base_rtt)
    sw0 = net.add_switch("sw0")
    sw1 = net.add_switch("sw1")
    h0 = net.add_host(0)
    h1 = net.add_host(1)
    host_qcfg = _host_qcfg()
    net.connect_host(h0, sw0, rate, prop_delay, qcfg, up_qcfg=host_qcfg)
    net.connect_host(h1, sw1, rate, prop_delay, qcfg, up_qcfg=host_qcfg)
    p01, p10 = net.connect_switches(sw0, sw1, bottleneck_rate, prop_delay, qcfg)
    sw0.add_route(1, p01)
    sw1.add_route(0, p10)
    return Topology(sim, net, 2, rate, bottleneck_rate, base_rtt)


def leaf_spine(
    *,
    n_leaf: int = 9,
    n_spine: int = 4,
    hosts_per_leaf: int = 16,
    edge_rate: float = gbps(40),
    core_rate: float = gbps(100),
    prop_delay: float = us(1),
    buffer_bytes: int = 120_000,
    qcfg: Optional[QueueConfig] = None,
    sim: Optional[Simulator] = None,
) -> Topology:
    """Two-tier leaf-spine fabric (defaults = the paper's §6.2 topology).

    Every leaf connects to every spine.  Cross-leaf traffic is spread
    over the spines by the switches' path choice (ECMP hash or
    ``Switch.lb``); intra-leaf traffic turns around at the leaf.
    """
    sim = sim or Simulator()
    net = Network(sim)
    # Worst path: host-leaf-spine-leaf-host = 4 links each way.
    base_rtt = 8 * prop_delay + 8 * (1500 * 8.0 / edge_rate)
    if qcfg is None:
        qcfg = _default_qcfg(buffer_bytes, base_rtt)

    leaves = [net.add_switch(f"leaf{i}") for i in range(n_leaf)]
    spines = [net.add_switch(f"spine{i}") for i in range(n_spine)]

    # hosts
    host_leaf = {}
    host_id = 0
    host_qcfg = _host_qcfg()
    for leaf_idx, leaf in enumerate(leaves):
        for _ in range(hosts_per_leaf):
            host = net.add_host(host_id)
            net.connect_host(host, leaf, edge_rate, prop_delay, qcfg,
                             up_qcfg=host_qcfg)
            host_leaf[host_id] = leaf_idx
            host_id += 1

    # core links and routes
    up_ports = {}    # (leaf_idx, spine_idx) -> port
    down_ports = {}  # (spine_idx, leaf_idx) -> port
    for leaf_idx, leaf in enumerate(leaves):
        for spine_idx, spine in enumerate(spines):
            up, down = net.connect_switches(leaf, spine, core_rate, prop_delay, qcfg)
            up_ports[(leaf_idx, spine_idx)] = up
            down_ports[(spine_idx, leaf_idx)] = down

    for dst in range(host_id):
        dst_leaf = host_leaf[dst]
        # Leaves: local hosts already routed by connect_host; remote hosts
        # go up to every spine (ECMP candidates).
        for leaf_idx in range(n_leaf):
            if leaf_idx != dst_leaf:
                for spine_idx in range(n_spine):
                    leaves[leaf_idx].add_route(dst, up_ports[(leaf_idx, spine_idx)])
        # Spines: down to the destination's leaf.
        for spine_idx in range(n_spine):
            spines[spine_idx].add_route(dst, down_ports[(spine_idx, dst_leaf)])

    return Topology(sim, net, host_id, edge_rate, core_rate, base_rtt)


def fat_tree(
    *,
    k: int = 4,
    host_rate: float = gbps(10),
    fabric_rate: float = gbps(10),
    prop_delay: float = us(1),
    buffer_bytes: int = 120_000,
    qcfg: Optional[QueueConfig] = None,
    sim: Optional[Simulator] = None,
) -> Topology:
    """Canonical k-ary fat-tree (Al-Fares et al.): k pods, each with k/2
    edge and k/2 aggregation switches, (k/2)^2 core switches, k^3/4
    hosts, full bisection bandwidth when ``fabric_rate == host_rate``.

    Not used by any of the paper's experiments (which are two-tier), but
    a standard substrate for datacenter transport studies; routing is
    ECMP at every up-stage, exact downward.
    """
    if k < 2 or k % 2:
        raise ValueError("fat-tree requires an even k >= 2")
    sim = sim or Simulator()
    net = Network(sim)
    half = k // 2
    # Worst path: host-edge-agg-core-agg-edge-host = 6 links each way.
    base_rtt = 12 * prop_delay + 12 * (1500 * 8.0 / min(host_rate,
                                                        fabric_rate))
    if qcfg is None:
        qcfg = _default_qcfg(buffer_bytes, base_rtt)
    host_qcfg = _host_qcfg()

    edges = [[net.add_switch(f"edge{p}.{e}") for e in range(half)]
             for p in range(k)]
    aggs = [[net.add_switch(f"agg{p}.{a}") for a in range(half)]
            for p in range(k)]
    cores = [[net.add_switch(f"core{a}.{c}") for c in range(half)]
             for a in range(half)]

    # hosts
    host_pod = {}
    host_edge = {}
    host_id = 0
    for p in range(k):
        for e in range(half):
            for _ in range(half):
                host = net.add_host(host_id)
                net.connect_host(host, edges[p][e], host_rate, prop_delay,
                                 qcfg, up_qcfg=host_qcfg)
                host_pod[host_id] = p
                host_edge[host_id] = e
                host_id += 1

    # edge <-> agg (full mesh within a pod)
    edge_up = {}
    agg_down = {}
    for p in range(k):
        for e in range(half):
            for a in range(half):
                up, down = net.connect_switches(edges[p][e], aggs[p][a],
                                                fabric_rate, prop_delay, qcfg)
                edge_up[(p, e, a)] = up
                agg_down[(p, a, e)] = down

    # agg <-> core: agg a of every pod connects to core row a
    agg_up = {}
    core_down = {}
    for p in range(k):
        for a in range(half):
            for c in range(half):
                up, down = net.connect_switches(aggs[p][a], cores[a][c],
                                                fabric_rate, prop_delay, qcfg)
                agg_up[(p, a, c)] = up
                core_down[(a, c, p)] = down

    # routes
    for dst in range(host_id):
        dp, de = host_pod[dst], host_edge[dst]
        for p in range(k):
            for e in range(half):
                if p == dp and e == de:
                    continue  # local: routed by connect_host
                for a in range(half):
                    edges[p][e].add_route(dst, edge_up[(p, e, a)])
        for p in range(k):
            for a in range(half):
                if p == dp:
                    aggs[p][a].add_route(dst, agg_down[(p, a, de)])
                else:
                    for c in range(half):
                        aggs[p][a].add_route(dst, agg_up[(p, a, c)])
        for a in range(half):
            for c in range(half):
                cores[a][c].add_route(dst, core_down[(a, c, dp)])

    return Topology(sim, net, host_id, host_rate, fabric_rate, base_rtt)
