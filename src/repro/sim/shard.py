"""Space-parallel sharded simulation: one process per pod group.

A leaf-spine fabric is cut along its pod structure: leaves (with their
hosts) and spines are dealt round-robin to ``n_shards`` shards, and each
shard runs a full copy of the topology in its own process but only
*simulates* the devices it owns.  The physics that makes this sound is
the same one the pipelined :class:`~repro.sim.link.Wire` models: a
packet finishing serialization on a cross-shard link cannot affect the
other side until one propagation delay later.  That delay — minimized
over every boundary link — is the run's **lookahead** ``L``, and the
synchronization protocol is the classic conservative (CMB null-message)
scheme built on it:

* every shard runs its simulator up to a window boundary ``T``, during
  which boundary ports divert finished transmissions into per-peer
  outboxes (an *egress stub* replacing the wire push) instead of
  delivering them locally;
* at the boundary, shards exchange outboxes plus a null message: their
  next local event time (raw ``peek_time``), the earliest arrival among
  their own exports, a local-completion flag and their event count;
* each shard then computes — from identical numbers, so identically —
  ``base``, the earliest unexecuted event anywhere, and advances to
  ``T' = min(base + L, max_time)``.  Any export produced by an event at
  ``t >= base`` arrives no earlier than ``t + L >= T'``, so an imported
  packet is never injected into a receiver's past;
* imports are injected at ``send_time + prop_delay`` through
  :meth:`~repro.sim.engine.Simulator.schedule_reserved` with a
  contiguous seq block, sorted by ``(arrival, source shard, batch
  index)`` — heap tie-breaking stays deterministic, so repeated runs
  merge identically.

Determinism contract: per-flow FCTs of a sharded run are bit-identical
to the serial run of the same scenario.  Arrival instants are computed
from the same floats (``sim.now + prop_delay`` at serialization end,
``now + base_delay`` for control), and windowing cannot reorder events
with distinct times; the only divergence channel is a same-float-time
tie between an imported event and an unrelated local one, which Poisson
workloads hit with probability zero.  ``docs/sharding.md`` spells out
the partitioning rules and the lookahead math.

Termination is symmetric: every stop decision ("done", "budget",
"dead", "horizon") is a function of the exchanged data only, so all
shards break out of the window loop in the same round and nobody blocks
on a pipe that will never be written.

This module holds the simulator-level pieces — the plan, the ledger,
the boundary stubs and import injection (:class:`ShardBoundary`).  The
window loop itself, and the run it is wrapped around, live in
:class:`repro.experiments.distributed.ShardWorker`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from .host import Host
from .link import Port
from .network import Network
from .topology import Topology


class ShardLedger:
    """Cross-shard handoff accounting for one shard's network.

    The fabric conservation laws (:mod:`repro.validate`) are local to a
    shard's books, so every packet that leaves or enters through the
    shard boundary must be ledgered: exported data packets were
    transmitted but never arrive locally, injected ones arrive without
    a local transmission, and replica traffic neutralized at the source
    (see :class:`InertPort`, :class:`_ControlRouter`) was offered to the
    fabric but never enqueued.  ``exported_to``/``imported_from`` count
    per peer shard (data + control), and the supervisor closes the
    global law: shard A's ``exported_to[B]`` must equal shard B's
    ``imported_from[A]`` exactly.
    """

    __slots__ = ("exported_pkts", "exported_bytes",
                 "injected_pkts", "injected_bytes",
                 "inert_drops", "inert_drop_bytes",
                 "replica_control_drops",
                 "exported_to", "imported_from")

    def __init__(self) -> None:
        # data packets diverted into an outbox / delivered from an inbox
        self.exported_pkts = 0
        self.exported_bytes = 0
        self.injected_pkts = 0
        self.injected_bytes = 0
        # replica-sender data stopped at the (inert) NIC
        self.inert_drops = 0
        self.inert_drop_bytes = 0
        # replica-receiver control dropped by the router
        self.replica_control_drops = 0
        # peer shard -> [pkts, bytes], data AND control
        self.exported_to: Dict[int, List[int]] = {}
        self.imported_from: Dict[int, List[int]] = {}

    def digest(self) -> dict:
        """Plain-dict snapshot that crosses the result pipe by pickle."""
        return {
            "exported_pkts": self.exported_pkts,
            "exported_bytes": self.exported_bytes,
            "injected_pkts": self.injected_pkts,
            "injected_bytes": self.injected_bytes,
            "inert_drops": self.inert_drops,
            "inert_drop_bytes": self.inert_drop_bytes,
            "replica_control_drops": self.replica_control_drops,
            "exported_to": {k: list(v) for k, v in self.exported_to.items()},
            "imported_from": {k: list(v)
                              for k, v in self.imported_from.items()},
        }


class InertPort:
    """Stands in for a *replica* host's uplink.

    A flow whose receiver is local gets its sender endpoint built on the
    (remote-owned) source host replica too — schemes create both ends.
    That replica sender must never push data into this shard's fabric:
    the real packets are simulated in the owner shard and imported at
    the boundary.  Swapping the replica's uplink for an InertPort stops
    its traffic at the NIC through :meth:`Host.send`'s duck-type seam,
    after the host's offer counters were already incremented — the
    ledger's inert counters balance the offer law.

    Read-only queries (``rate_bps``, ``prop_delay``, ...) proxy to the
    replaced real port: transports size windows off the source uplink's
    rate (e.g. ``TransportContext.bdp_packets``), and those reads must
    return the same floats as serial.  Writes are not proxied — a
    transport mutating a replica's uplink would be a bug worth a loud
    AttributeError.
    """

    __slots__ = ("ledger", "port")

    def __init__(self, ledger: ShardLedger, port) -> None:
        self.ledger = ledger
        self.port = port

    def __getattr__(self, name):
        return getattr(self.port, name)

    def send(self, pkt) -> bool:
        ledger = self.ledger
        ledger.inert_drops += 1
        ledger.inert_drop_bytes += pkt.size
        return False


class _BoundaryEgress:
    """Serialization-complete callback for a cross-shard port.

    Installed as the port's ``_tx_cb``; mirrors
    :meth:`~repro.sim.link.Port._tx_done` exactly — counters, fault
    chain, next-dequeue — except the finished packet goes into the
    peer shard's outbox (timestamped with the arrival instant the wire
    would have produced: ``sim.now + prop_delay``, the very float the
    serial run computes) instead of onto the local wire.
    """

    __slots__ = ("port", "port_index", "dst_shard", "ledger", "outbox")

    def __init__(self, port: Port, port_index: int, dst_shard: int,
                 ledger: ShardLedger, outbox: list) -> None:
        self.port = port
        self.port_index = port_index
        self.dst_shard = dst_shard
        self.ledger = ledger
        self.outbox = outbox

    def __call__(self, pkt) -> None:
        port = self.port
        sim = port.sim
        port.bytes_sent += pkt.size
        port.pkts_sent += 1
        port.busy_time += sim.now - port._tx_start
        chain = port.fault_chain
        if chain is not None and not chain.transmit(pkt):
            port.fault_wire_drops += 1
            port.fault_wire_drop_bytes += pkt.size
            port._start_next()
            return
        ledger = self.ledger
        ledger.exported_pkts += 1
        ledger.exported_bytes += pkt.size
        pair = ledger.exported_to[self.dst_shard]
        pair[0] += 1
        pair[1] += pkt.size
        # (arrival, kind=0 data, ingress port index, packet)
        self.outbox.append((sim.now + port.prop_delay, 0,
                            self.port_index, pkt))
        if port.mux.nonempty_mask:
            port._start_next()
        else:
            port.busy = False


class _ControlRouter:
    """Shard-aware replacement for :meth:`Network.send_control`.

    Installed as an instance attribute on the shard's network, which
    every transport honours (the window receiver's ACK fast path checks
    for exactly this override before caching a pipe).  Routing is by
    the *emitting* host's locality:

    * remote source — a replica endpoint generated it (a receiver
      granting credit it never really earned); dropped and counted;
    * local source, local destination — the stock
      :meth:`Network.send_control`, unbound, so counters and delivery
      floats are bit-identical to serial;
    * local source, remote destination — serial's emit-side counters
      are mirrored, then the packet is exported with the arrival the
      ideal control path would have produced (``now + base_delay``;
      cross-shard pairs are cross-leaf, so that delay always exceeds
      the lookahead).
    """

    __slots__ = ("net", "shard_id", "shard_of_host", "ledger", "outboxes")

    def __init__(self, net: Network, shard_id: int,
                 shard_of_host: Dict[int, int], ledger: ShardLedger,
                 outboxes: Dict[int, list]) -> None:
        self.net = net
        self.shard_id = shard_id
        self.shard_of_host = shard_of_host
        self.ledger = ledger
        self.outboxes = outboxes

    def __call__(self, pkt) -> None:
        shard_of_host = self.shard_of_host
        me = self.shard_id
        if shard_of_host[pkt.src] != me:
            self.ledger.replica_control_drops += 1
            return
        dst_shard = shard_of_host[pkt.dst]
        net = self.net
        if dst_shard == me:
            Network.send_control(net, pkt)
            return
        net.control_pkts += 1
        net.hosts[pkt.src].ops_sent += 1
        pair = self.ledger.exported_to[dst_shard]
        pair[0] += 1
        pair[1] += pkt.size
        arrival = net.sim.now + net.base_delay(pkt.src, pkt.dst)
        # (arrival, kind=1 control, destination host, packet)
        self.outboxes[dst_shard].append((arrival, 1, pkt.dst, pkt))


@dataclass
class ShardPlan:
    """How a topology is cut: device -> shard maps plus the lookahead."""

    n_shards: int
    lookahead: float
    shard_of_host: Dict[int, int]
    shard_of_switch: Dict[int, int]

    def hosts_of(self, shard: int) -> List[int]:
        return sorted(h for h, s in self.shard_of_host.items() if s == shard)


def _device_shard(device, plan: ShardPlan) -> int:
    if isinstance(device, Host):
        return plan.shard_of_host[device.host_id]
    return plan.shard_of_switch[device.switch_id]


def boundary_ports(net: Network,
                   plan: ShardPlan) -> List[Tuple[Port, int, int]]:
    """Every port whose transmitter and receiver live in different
    shards, as ``(port, owner_shard, peer_shard)`` in deterministic
    (construction) order.  A port belongs to the device that transmits
    on it: switch ports to their switch, host uplinks to their host.
    """
    out: List[Tuple[Port, int, int]] = []
    for switch in net.switches:
        owner = plan.shard_of_switch[switch.switch_id]
        for port in switch.ports():
            peer_shard = _device_shard(port.peer, plan)
            if peer_shard != owner:
                out.append((port, owner, peer_shard))
    for host in net.hosts.values():
        port = host.uplink
        if type(port) is not Port:
            continue
        owner = plan.shard_of_host[host.host_id]
        peer_shard = _device_shard(port.peer, plan)
        if peer_shard != owner:
            out.append((port, owner, peer_shard))
    return out


def plan_shards(topo: Topology, n_shards: int) -> ShardPlan:
    """Partition ``topo`` into ``n_shards`` pod groups.

    Leaves (each with its attached hosts) and spines are dealt
    round-robin by index, so hosts never straddle a boundary mid-leaf
    and the cut runs exclusively through leaf<->spine links — whose
    propagation delay becomes the lookahead.  Only fabrics built by
    :func:`~repro.sim.topology.leaf_spine` carry the partition
    metadata; anything else raises.
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    net = topo.network
    if n_shards == 1:
        return ShardPlan(1, 0.0,
                         {h: 0 for h in net.hosts},
                         {s.switch_id: 0 for s in net.switches})
    if (topo.host_leaf is None or topo.leaf_switch_ids is None
            or topo.spine_switch_ids is None):
        raise ValueError(
            "topology carries no partition metadata; only leaf_spine() "
            "fabrics can be sharded (star/dumbbell/fat-tree have no pod "
            "structure to cut along)")
    n_leaf = len(topo.leaf_switch_ids)
    if n_shards > n_leaf:
        raise ValueError(
            f"cannot cut {n_leaf} leaves into {n_shards} shards; "
            f"use at most n_shards={n_leaf}")
    shard_of_switch: Dict[int, int] = {}
    for idx, switch_id in enumerate(topo.leaf_switch_ids):
        shard_of_switch[switch_id] = idx % n_shards
    for idx, switch_id in enumerate(topo.spine_switch_ids):
        shard_of_switch[switch_id] = idx % n_shards
    shard_of_host = {
        host_id: shard_of_switch[topo.leaf_switch_ids[leaf_idx]]
        for host_id, leaf_idx in topo.host_leaf.items()}
    plan = ShardPlan(n_shards, 0.0, shard_of_host, shard_of_switch)
    boundary = boundary_ports(net, plan)
    if not boundary:
        raise ValueError("partition produced no cross-shard links")
    plan.lookahead = min(port.prop_delay for port, _o, _p in boundary)
    return plan


def check_shardable(scenario, net: Network) -> None:
    """The one declared list of what a sharded run refuses.

    ``net`` is the scenario's fabric after ``scheme.configure_network``.
    :func:`~repro.experiments.distributed.run_sharded` calls this on its
    reference build before any fork, so a bad combination fails with one
    clear error instead of n worker tracebacks; every shard worker calls
    it again on its own build, so a worker driven directly cannot
    produce a silently wrong answer either.
    """
    if scenario.faults is not None:
        raise ValueError(
            "sharded runs do not support fault plans (cross-shard fault "
            "windows have no deterministic-merge semantics yet)")
    if scenario.hybrid is not None:
        raise ValueError(
            "sharded runs do not support the hybrid fast path "
            "(abstract flows have no boundary-crossing packets)")
    if net.pfc_controllers:
        raise ValueError(
            "sharded runs do not support PFC (pause frames cross shard "
            "boundaries outside the data-packet protocol)")


class ShardBoundary:
    """One shard's edge of an assembled fabric: what leaves, what enters.

    Construction neutralizes everything shard ``shard_id`` does not own
    on ``net`` (a full copy of the topology): its cross-shard ports
    divert finished transmissions into the per-peer ``outboxes``,
    replica hosts get an :class:`InertPort` uplink, control packets go
    through a :class:`_ControlRouter`, and the :class:`ShardLedger`
    that keeps the books lands on ``net.shard_ledger`` for the auditor.
    :meth:`inject` is the way in: a round's imports become local events.
    """

    def __init__(self, net: Network, plan: ShardPlan, shard_id: int) -> None:
        ledger = ShardLedger()
        peers = [k for k in range(plan.n_shards) if k != shard_id]
        for k in peers:
            ledger.exported_to[k] = [0, 0]
            ledger.imported_from[k] = [0, 0]
        net.shard_ledger = ledger
        self.ledger = ledger
        self.outboxes: Dict[int, list] = {k: [] for k in peers}
        self._sim = net.sim
        self._ports = net.ports
        self._hosts = net.hosts

        # Boundary stubbing needs the true port ownership, so it runs
        # BEFORE replica uplinks are swapped out.
        port_index = {id(p): i for i, p in enumerate(net.ports)}
        for port, owner, peer_shard in boundary_ports(net, plan):
            if owner != shard_id:
                continue  # simulated (for real) by its own shard
            port._tx_cb = _BoundaryEgress(port, port_index[id(port)],
                                          peer_shard, ledger,
                                          self.outboxes[peer_shard])
        shard_of_host = plan.shard_of_host
        for host in net.hosts.values():
            if shard_of_host[host.host_id] != shard_id:
                host.uplink = InertPort(ledger, host.uplink)
        net.send_control = _ControlRouter(net, shard_id, shard_of_host,
                                          ledger, self.outboxes)

    def inject(self, imports_round: List[Tuple[int, list]]) -> None:
        """Schedule one round's imports — ``(source shard, its outbox
        for us)`` pairs — deterministically.

        Entries are ordered by ``(arrival, source shard, batch index)``
        and given a contiguous reserved seq block, so the heap's
        tie-break order is a pure function of the merged traffic — the
        same run shards the same way twice.  The lookahead guarantees
        ``arrival >= sim.now``; the clamp is belt-and-braces (scheduling
        into the past would drag the clock backwards).
        """
        entries = []
        for k, imports in imports_round:
            for idx, entry in enumerate(imports):
                entries.append((entry[0], k, idx, entry))
        if not entries:
            return
        entries.sort(key=lambda e: (e[0], e[1], e[2]))
        sim = self._sim
        ledger = self.ledger
        now = sim.now
        first = sim.reserve_seq(len(entries))
        for offset, (arrival, k, _idx, entry) in enumerate(entries):
            _a, kind, ref, pkt = entry
            pair = ledger.imported_from[k]
            pair[0] += 1
            pair[1] += pkt.size
            if arrival < now:
                arrival = now
            if kind == 0:
                sim.schedule_reserved(arrival, first + offset,
                                      self._deliver_data, ref, pkt)
            else:
                sim.schedule_reserved(arrival, first + offset,
                                      self._deliver_control, pkt)

    def _deliver_data(self, port_index: int, pkt) -> None:
        """An imported data packet reaches the boundary port's peer —
        the exact callback the wire's head arrival would have run."""
        ledger = self.ledger
        ledger.injected_pkts += 1
        ledger.injected_bytes += pkt.size
        self._ports[port_index].peer.receive(pkt)

    def _deliver_control(self, pkt) -> None:
        self._hosts[pkt.dst].receive_control(pkt)
