"""Network assembly: hosts + switches + links, plus the ideal reverse path.

The :class:`Network` wires devices together, owns the base-delay cache used
for RTT-derived parameters (BDP, ECN thresholds, pacing), and provides the
*ideal control path*: acknowledgements, grants and pulls are delivered after
the base path delay without queueing, a standard datacenter-simulator
shortcut (see DESIGN.md §2).  Forward data packets always traverse the full
queued fabric.
"""

from __future__ import annotations

import fnmatch
from collections import deque
from dataclasses import dataclass, field
from heapq import heappush
from typing import Callable, Dict, List, Optional, Tuple

from ..units import ecn_threshold_bytes, serialization_delay
from .engine import Simulator
from .host import Host
from .link import Port
from .packet import HEADER_BYTES, NUM_PRIORITIES, Packet
from .queues import PfcConfig, PriorityMux
from .routing import ecmp_hash
from .switch import Switch


@dataclass
class QueueConfig:
    """Recipe for building one port's :class:`PriorityMux`.

    ECN thresholds can be given explicitly per priority, or derived from
    the paper's Eq. (3) ``K = lambda * C * RTT`` with separate lambdas for
    the high-priority half (P0-P3, HCP) and the low-priority half (P4-P7,
    LCP).  Setting everything to None disables marking.
    """

    buffer_bytes: int
    ecn_thresholds: Optional[List[Optional[int]]] = None
    ecn_lambda_high: Optional[float] = None
    ecn_lambda_low: Optional[float] = None
    base_rtt: Optional[float] = None
    lp_buffer_cap: Optional[int] = None
    # DT alpha 8 for the high-priority half, 1 for the lossy low-priority
    # half (see PriorityMux docstring); None = pure shared tail drop.
    dt_alpha: object = (8.0, 8.0, 8.0, 8.0, 1.0, 1.0, 1.0, 1.0)

    def build(self, rate_bps: float) -> PriorityMux:
        thresholds = self.ecn_thresholds
        if thresholds is None and self.ecn_lambda_high is not None:
            if self.base_rtt is None:
                raise ValueError("base_rtt required to derive ECN thresholds")
            k_high = ecn_threshold_bytes(self.ecn_lambda_high, rate_bps, self.base_rtt)
            lam_low = (
                self.ecn_lambda_low
                if self.ecn_lambda_low is not None
                else self.ecn_lambda_high
            )
            k_low = ecn_threshold_bytes(lam_low, rate_bps, self.base_rtt)
            thresholds = [k_high] * 4 + [k_low] * 4
        return PriorityMux(
            self.buffer_bytes,
            thresholds,
            lp_buffer_cap=self.lp_buffer_cap,
            dt_alpha=self.dt_alpha,
        )


class ControlPipe:
    """The ideal path from one (src, dst) host pair.

    The control plane delivers after a *constant* per-pair base delay,
    so each control packet is one direct heap entry,
    ``(now + delay, seq, peer.receive_control, pkt)``: the run loop
    hands it to the peer host and nothing else is allocated or held.
    The pipe owns what is constant for its pair — the delay and the
    sending host, whose ``ops_sent`` each control packet bumps — so
    sending one is ``pipe.send(pkt)`` (handed out by
    :meth:`Network.control_sender`).
    """

    __slots__ = ("sim", "host", "peer", "delay", "_deliver_cb", "_send_cb")

    def __init__(self, net: "Network", src: int, dst: int) -> None:
        self.sim = net.sim
        self.host = net.hosts[src]    # the sender: one datapath op each
        self.peer = net.hosts[dst]
        self.delay = net.base_delay(src, dst)
        self._bind()

    def _bind(self) -> None:
        """Bound methods made once: a fresh one per packet (deliver) or
        per endpoint (send) costs time and memory."""
        self._deliver_cb = self.peer.receive_control
        self._send_cb = self.send

    def __getstate__(self) -> dict:
        """Checkpoint snapshot: same contract as :meth:`Wire.__getstate__`
        — the bound-callback caches are rebuilt on restore."""
        return {name: getattr(self, name) for name in self.__slots__
                if not name.endswith("_cb")}

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            setattr(self, name, value)
        self._bind()

    def send(self, pkt: Packet) -> None:
        self.host.ops_sent += 1
        # reserve_seq + schedule_direct, inlined — per-ACK hot path
        sim = self.sim
        sim._seq = seq = sim._seq + 1
        heap = sim._heap
        heappush(heap, (sim.now + self.delay, seq, self._deliver_cb, pkt))
        if len(heap) > sim.peak_pending:
            sim.peak_pending = len(heap)


class PfcController:
    """Per-switch PFC pause/resume fan-out.

    The data-plane trigger lives in the egress muxes (``PfcState``
    hysteresis); this controller turns each switch-level XOFF/XON edge
    into PAUSE/RESUME deliveries at every *upstream* transmitter feeding
    the switch, one link propagation delay later — the hop-by-hop,
    whole-ingress blast radius that makes PFC storms and head-of-line
    blocking possible.  Per-egress assertions are ref-counted
    (``xoff_count``): upstream ports resume only when the last congested
    egress queue has drained below XON.

    All state is plain data; the controller pickles inside checkpoints
    along with the network (in-flight deliveries are heap events holding
    bound methods, exactly like the wire/timer callbacks).
    """

    def __init__(self, sim: Simulator, switch: Switch,
                 ingress_ports: List[Port]) -> None:
        self.sim = sim
        self.switch = switch
        self.ingress_ports = ingress_ports
        self.xoff_count = [0] * NUM_PRIORITIES
        self.commanded_mask = 0
        # per-ingress-port mask of priorities whose latest command has
        # been delivered (trails commanded_mask by the in-flight ops)
        self.delivered_masks = [0] * len(ingress_ports)
        self.pending_ops = 0
        self.pauses_sent = 0

    def on_xoff(self, priority: int) -> None:
        """An egress queue crossed XOFF: pause upstream (0 -> 1 edge)."""
        self.xoff_count[priority] += 1
        if self.xoff_count[priority] == 1:
            self.commanded_mask |= 1 << priority
            self._fan_out(priority, True)

    def on_xon(self, priority: int) -> None:
        """An egress queue drained below XON: last one lifts the pause."""
        self.xoff_count[priority] -= 1
        if self.xoff_count[priority] == 0:
            self.commanded_mask &= ~(1 << priority)
            self._fan_out(priority, False)

    def _fan_out(self, priority: int, pause: bool) -> None:
        sim = self.sim
        now = sim.now
        for index, port in enumerate(self.ingress_ports):
            # the PAUSE frame crosses the link back to the transmitter
            sim.schedule_at(now + port.prop_delay, self._deliver,
                            index, priority, pause)
            self.pending_ops += 1
            if pause:
                self.pauses_sent += 1

    def _deliver(self, index: int, priority: int, pause: bool) -> None:
        self.pending_ops -= 1
        bit = 1 << priority
        port = self.ingress_ports[index]
        if pause:
            self.delivered_masks[index] |= bit
            port.pfc_pause(priority)
        else:
            self.delivered_masks[index] &= ~bit
            port.pfc_resume(priority)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<PfcController {self.switch.name} "
                f"commanded={self.commanded_mask:#x} "
                f"pauses={self.pauses_sent}>")


class Network:
    """The assembled fabric."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.hosts: Dict[int, Host] = {}
        self.switches: List[Switch] = []
        self.ports: List[Port] = []
        # adjacency: device -> [(peer_device, prop_delay, rate_bps)]
        self._adj: Dict[object, List[Tuple[object, float, float]]] = {}
        # source host -> {destination host: base delay}, one BFS a row
        self._base_delays: Dict[int, Dict[int, float]] = {}
        # both directions summed, one probe per flow set-up
        self._base_rtt_cache: Dict[Tuple[int, int], float] = {}
        self._control_pipes: Dict[Tuple[int, int], ControlPipe] = {}
        # PFC controllers, one per switch, populated by enable_pfc().
        self.pfc_controllers: List[PfcController] = []

    # -- construction ----------------------------------------------------

    def add_host(self, host_id: int) -> Host:
        host = Host(host_id)
        self.hosts[host_id] = host
        self._adj.setdefault(host, [])
        return host

    def add_switch(self, name: str = "") -> Switch:
        switch = Switch(len(self.switches), name)
        self.switches.append(switch)
        self._adj.setdefault(switch, [])
        return switch

    def _make_port(
        self, rate_bps: float, prop_delay: float, qcfg: QueueConfig, peer, name: str
    ) -> Port:
        port = Port(self.sim, rate_bps, prop_delay, qcfg.build(rate_bps), peer, name)
        self.ports.append(port)
        return port

    def connect_host(
        self,
        host: Host,
        switch: Switch,
        rate_bps: float,
        prop_delay: float,
        qcfg: QueueConfig,
        up_qcfg: Optional[QueueConfig] = None,
    ) -> Tuple[Port, Port]:
        """Bidirectional host <-> switch link; returns (up_port, down_port).

        ``qcfg`` builds the switch-side downlink queue; ``up_qcfg`` (the
        host NIC / qdisc model) defaults to the same config.
        """
        up = self._make_port(rate_bps, prop_delay, up_qcfg or qcfg, switch,
                             f"{host.name}->{switch.name}")
        down = self._make_port(rate_bps, prop_delay, qcfg, host,
                               f"{switch.name}->{host.name}")
        host.uplink = up
        switch.add_route(host.host_id, down)
        self._adj[host].append((switch, prop_delay, rate_bps))
        self._adj[switch].append((host, prop_delay, rate_bps))
        return up, down

    def connect_switches(
        self,
        a: Switch,
        b: Switch,
        rate_bps: float,
        prop_delay: float,
        qcfg: QueueConfig,
    ) -> Tuple[Port, Port]:
        """Bidirectional switch <-> switch link; routes added by the caller."""
        ab = self._make_port(rate_bps, prop_delay, qcfg, b, f"{a.name}->{b.name}")
        ba = self._make_port(rate_bps, prop_delay, qcfg, a, f"{b.name}->{a.name}")
        self._adj[a].append((b, prop_delay, rate_bps))
        self._adj[b].append((a, prop_delay, rate_bps))
        return ab, ba

    def set_load_balancer(self, make: Callable[[], object]) -> None:
        """Install ``make()`` as the load balancer of every switch,
        replacing whatever balancer it had (``make`` returning None
        restores per-flow ECMP).

        Each switch gets its own instance so balancer state never leaks
        between hops.  Call after the topology is fully built.
        """
        for switch in self.switches:
            switch.lb = make()

    def enable_pfc(self, config: PfcConfig) -> None:
        """Make every switch egress lossless: the only way a port gets
        PFC (idempotent).

        Each switch egress mux gets ``config``'s thresholds, wired to a
        per-switch :class:`PfcController` that pauses all the switch's
        upstream transmitters.  Host NIC muxes are never made lossless
        themselves: a host is a traffic *source*, it gets paused from
        downstream but has nobody upstream to pause (its multi-MB NIC
        buffer absorbs the backlog).
        """
        if self.pfc_controllers:
            return  # already enabled
        for switch in self.switches:
            ingress = [p for p in self.ports if p.peer is switch]
            controller = PfcController(self.sim, switch, ingress)
            for port in switch.ports():
                port.mux.pfc = config.make_state()
                port.mux.pfc.controller = controller
            self.pfc_controllers.append(controller)

    # -- ideal control path ----------------------------------------------

    def base_delay(self, src_host: int, dst_host: int) -> float:
        """One-way base delay between two hosts: propagation plus one
        header serialization per hop, no queueing."""
        if src_host == dst_host:
            return 0.0
        row = self._base_delays.get(src_host)
        delay = None if row is None else row.get(dst_host)
        if delay is None:
            # first miss for this source (or a host added since): one
            # BFS fills the source's whole row
            delay = self._fill_base_delays(src_host).get(dst_host)
            if delay is None:
                raise KeyError(
                    f"no path from host {src_host} to host {dst_host}")
        return delay

    def _fill_base_delays(self, src_host: int) -> Dict[int, float]:
        """BFS from ``src_host`` for the minimum-hop path to every host,
        accumulating delay; caches and returns the source's row."""
        src = self.hosts[src_host]
        row: Dict[int, float] = {}
        frontier = deque([(src, 0.0)])
        seen = {src}
        while frontier:
            node, delay = frontier.popleft()
            for peer, prop, rate in self._adj[node]:
                if peer not in seen:
                    seen.add(peer)
                    d = delay + prop + serialization_delay(HEADER_BYTES, rate)
                    if isinstance(peer, Host):
                        row[peer.host_id] = d
                    frontier.append((peer, d))
        self._base_delays[src_host] = row
        return row

    def resolve_path(self, flow_id: int, src_host: int,
                     dst_host: int) -> List[Port]:
        """The exact port sequence ``flow_id``'s data packets traverse
        under default deterministic forwarding.

        Mirrors :meth:`Switch.receive`'s candidate selection (single
        candidate, else per-flow ECMP hash).  Only meaningful when no
        switch has a load balancer (``Switch.lb``) — the hybrid
        fast path checks that once at bind time and falls back to the
        packet model otherwise.
        """
        if src_host == dst_host:
            return []
        port = self.hosts[src_host].uplink
        if port is None:
            raise KeyError(f"host {src_host} has no uplink")
        dst = self.hosts[dst_host]
        path = [port]
        device = port.peer
        for _hop in range(64):
            if device is dst:
                return path
            candidates = device.table.get(dst_host)
            if not candidates:
                raise KeyError(f"{device.name}: no route to host {dst_host}")
            if len(candidates) == 1:
                port = candidates[0]
            else:
                port = candidates[ecmp_hash(flow_id, device.switch_id,
                                            len(candidates))]
            path.append(port)
            device = port.peer
        raise RuntimeError(
            f"routing loop resolving host {src_host} -> host {dst_host}")

    def base_rtt(self, src_host: int, dst_host: int) -> float:
        """Round-trip base delay between two hosts."""
        key = (src_host, dst_host)
        rtt = self._base_rtt_cache.get(key)
        if rtt is None:
            rtt = self._base_rtt_cache[key] = (
                self.base_delay(src_host, dst_host)
                + self.base_delay(dst_host, src_host))
        return rtt

    def control_pipe(self, src: int, dst: int) -> ControlPipe:
        """The (lazily created) ideal-path FIFO from ``src`` to ``dst``."""
        key = (src, dst)
        pipe = self._control_pipes.get(key)
        if pipe is None:
            pipe = self._control_pipes[key] = ControlPipe(self, src, dst)
        return pipe

    def control_sender(self, src: int, dst: int):
        """The callable an endpoint with a fixed peer sends its control
        packets through: the pair's bound :meth:`ControlPipe.send` — or
        :meth:`send_control` itself when an instance patch (the tests'
        capture seam) or a subclass override replaced it.  Endpoints
        resolve it on their first control packet and cache it, so a
        patch installed after the endpoint was built is still honoured.
        """
        if ("send_control" in self.__dict__
                or type(self).send_control is not Network.send_control):
            return self.send_control
        return self.control_pipe(src, dst)._send_cb

    def send_control(self, pkt: Packet) -> None:
        """Deliver a control packet over the ideal (unqueued) reverse path."""
        self.control_pipe(pkt.src, pkt.dst).send(pkt)

    # -- flow endpoint wiring ---------------------------------------------

    def attach(self, flow_id: int, src_host: int, dst_host: int,
               sender, receiver) -> None:
        """Register a sender at ``src_host`` and receiver at ``dst_host``."""
        self.hosts[src_host].register(flow_id, sender)
        self.hosts[dst_host].register(flow_id, receiver)

    # -- introspection ----------------------------------------------------

    def find_ports(self, pattern: str) -> List[Port]:
        """Ports whose name matches ``pattern`` (exact or fnmatch glob).

        Matches are returned in construction order, which is
        deterministic, so fault plans resolved against the result are
        reproducible.  Raises KeyError when nothing matches — a fault
        plan naming a non-existent link is a configuration bug, not a
        no-op.
        """
        matched = [p for p in self.ports if p.name == pattern]
        if not matched:
            matched = [p for p in self.ports
                       if fnmatch.fnmatchcase(p.name, pattern)]
        if not matched:
            raise KeyError(f"no port matches {pattern!r}")
        return matched

    def port_named(self, name: str) -> Port:
        """The unique port with exactly this name."""
        for port in self.ports:
            if port.name == name:
                return port
        raise KeyError(f"no port named {name!r}")

    def port_to_host(self, host_id: int) -> Port:
        """The last-hop switch port feeding ``host_id`` (its downlink)."""
        for switch in self.switches:
            for port in switch.table.get(host_id, []):
                if port.peer is self.hosts[host_id]:
                    return port
        raise KeyError(f"no downlink port to host {host_id}")

    def total_drops(self) -> int:
        return sum(port.mux.stats.dropped for port in self.ports)


# An abstract flow is demoted when measured packet traffic claims more
# than this fraction of a path port's capacity (belt and braces on top
# of the packet-flow path refcounts, which catch sharing exactly).
CONTENTION_FRACTION = 0.02


class LinkLedger:
    """Per-port capacity ledger shared between the hybrid fast path's
    abstract rate shares and the packet model's occupancy.

    Abstract flows never enqueue packets, so a tracked port's
    ``bytes_sent`` delta between two congestion epochs measures *pure
    packet-model* traffic; whatever is left of the link rate is the
    capacity the waterfiller may hand to abstract flows.  The
    packet-flow refcounts come from the hybrid controller's path
    bookkeeping and make "shares a bottleneck with a packet flow" an
    O(path) test.  Plain data throughout — the ledger pickles inside
    checkpoints along with the network.
    """

    __slots__ = ("tracked", "packet_flows", "last_time")

    def __init__(self) -> None:
        # port -> [bytes_sent at last measurement, measured bytes/sec]
        self.tracked: Dict[Port, list] = {}
        # port -> number of live packet-mode flows routed through it
        self.packet_flows: Dict[Port, int] = {}
        self.last_time: Optional[float] = None

    def track(self, port: Port) -> None:
        if port not in self.tracked:
            self.tracked[port] = [port.bytes_sent, 0.0]

    def measure(self, now: float) -> None:
        """Refresh measured packet throughput from the port counters."""
        last = self.last_time
        self.last_time = now
        if last is None or now <= last:
            return
        inv_dt = 1.0 / (now - last)
        for port, state in self.tracked.items():
            sent = port.bytes_sent
            state[1] = (sent - state[0]) * inv_dt
            state[0] = sent

    def add_packet_flow(self, path: List[Port]) -> None:
        flows = self.packet_flows
        for port in path:
            flows[port] = flows.get(port, 0) + 1

    def remove_packet_flow(self, path: List[Port]) -> None:
        flows = self.packet_flows
        for port in path:
            left = flows.get(port, 0) - 1
            if left > 0:
                flows[port] = left
            else:
                flows.pop(port, None)

    def available_bps(self, port: Port) -> float:
        """Link rate minus measured packet throughput, in bits/sec."""
        state = self.tracked.get(port)
        measured = state[1] * 8.0 if state is not None else 0.0
        rest = port.rate_bps - measured
        return rest if rest > 0.0 else 0.0

    def contended(self, port: Port) -> bool:
        """True when ``port`` is unsafe to back an abstract rate share:
        PFC-paused, fault-chained, shared with a live packet flow,
        visibly transmitting, or measurably carrying more than
        :data:`CONTENTION_FRACTION` of its capacity in packet traffic."""
        if port.paused_mask or port.fault_chain is not None:
            return True
        if port in self.packet_flows:
            return True
        if port.busy or port.mux.pkt_count:
            return True
        state = self.tracked.get(port)
        return (state is not None
                and state[1] * 8.0 > CONTENTION_FRACTION * port.rate_bps)
