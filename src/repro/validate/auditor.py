"""The runtime invariant auditor.

:class:`RunAuditor` piggybacks on the same places :mod:`repro.obs` does —
the drain-slice boundary in :func:`repro.experiments.runner.run` and a
per-send-burst hook in :class:`~repro.transport.window.WindowSender` —
and *only reads* simulator state.  It schedules no events, pops no heap
entries (engine inspection goes through the non-destructive
:meth:`~repro.sim.engine.Simulator.peek_time`) and mutates nothing in
the fabric, which is what makes a validated run bit-identical to a bare
one.

Laws checked (see ``docs/validation.md`` for the full catalogue and the
paper grounding of each):

* **engine** — the clock never goes backwards across slices, and no live
  heap entry is ever timestamped before ``sim.now``;
* **queue** — per-:class:`~repro.sim.queues.PriorityMux` occupancy
  equals both the per-priority ledger and the byte-sum of the actual
  queued packets, plus the admission/occupancy conservation laws over
  :class:`~repro.sim.queues.QueueStats`;
* **port** — dequeues equal completed transmissions plus the packet on
  the wire;
* **transport** — per-flow transmission accounting, cum/delivered
  bounds, every out-of-order scoreboard inside ``[cum, n_packets)``,
  window discipline after every send burst, and a never-stale RTO
  deadline while armed;
* **end-to-end** — every packet (and byte) injected by any sender is
  delivered, dropped, trimmed away or still in flight — nothing is
  created or destroyed by the fabric.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

from ..sim.network import Network
from ..sim.queues import LOSSLESS_MASK, LOSSLESS_PRIORITY, PriorityMux
from ..transport.base import MessageEndpoint
from ..transport.window import WindowReceiver, WindowSender
from .report import InvariantViolation, ValidationReport, Violation

# Absolute slack for float time comparisons (an RTO deadline stored as
# ``now + (deadline - now)`` can differ from ``deadline`` by an ulp).
TIME_EPS = 1e-9


def audit_mux(mux: PriorityMux) -> List[Tuple[str, str, dict]]:
    """Check every queue law on one mux; returns ``(law, message,
    details)`` tuples (empty list = healthy).

    Standalone so the randomized property tests can drive a bare mux
    through enqueue/dequeue/flush/trim/selective-drop sequences and
    audit it after every operation, without a simulator in sight.
    """
    problems: List[Tuple[str, str, dict]] = []
    stats = mux.stats

    per_queue_bytes = [sum(p.size for p in q) for q in mux.queues]
    packet_bytes = sum(per_queue_bytes)
    lp_bytes = sum(p.size for q in mux.queues for p in q if p.lcp)
    still_queued = sum(len(q) for q in mux.queues)

    if mux.occupancy != sum(mux.queue_occupancy):
        problems.append((
            "mux-occupancy-sum",
            "occupancy ledger disagrees with per-priority ledger",
            {"occupancy": mux.occupancy,
             "queue_occupancy_sum": sum(mux.queue_occupancy)}))
    if mux.occupancy != packet_bytes:
        problems.append((
            "mux-occupancy-bytes",
            "occupancy ledger disagrees with byte-sum of queued packets",
            {"occupancy": mux.occupancy, "packet_bytes": packet_bytes}))
    for priority, (ledger, actual) in enumerate(
            zip(mux.queue_occupancy, per_queue_bytes)):
        if ledger != actual:
            problems.append((
                "mux-queue-occupancy",
                f"priority {priority} ledger disagrees with queued packets",
                {"priority": priority, "ledger": ledger, "actual": actual}))
    if mux.lp_occupancy != lp_bytes:
        problems.append((
            "mux-lp-occupancy",
            "lp_occupancy ledger disagrees with queued LP packets",
            {"lp_occupancy": mux.lp_occupancy, "lp_bytes": lp_bytes}))
    # The hot-path incremental ledgers (ISSUE 5) are pure mirrors of
    # derivable state; any divergence means an enqueue/dequeue/flush
    # path forgot to maintain one of them.
    if mux.hp_occupancy != sum(per_queue_bytes[0:4]):
        problems.append((
            "mux-hp-occupancy",
            "hp_occupancy ledger disagrees with queued P0-3 packets",
            {"hp_occupancy": mux.hp_occupancy,
             "actual": sum(per_queue_bytes[0:4])}))
    actual_mask = 0
    for priority, queue in enumerate(mux.queues):
        if queue:
            actual_mask |= 1 << priority
    if mux.nonempty_mask != actual_mask:
        problems.append((
            "mux-nonempty-mask",
            "non-empty-queue bitmask disagrees with actual queues",
            {"nonempty_mask": mux.nonempty_mask, "actual": actual_mask}))
    if mux.pkt_count != still_queued:
        problems.append((
            "mux-pkt-count",
            "pkt_count ledger disagrees with queued packets",
            {"pkt_count": mux.pkt_count, "actual": still_queued}))
    pfc = mux.pfc
    headroom = pfc.headroom_bytes if pfc is not None else 0
    if mux.occupancy > mux.buffer_bytes + headroom:
        problems.append((
            "mux-buffer-cap",
            "occupancy exceeds the shared buffer plus PFC headroom",
            {"occupancy": mux.occupancy, "buffer_bytes": mux.buffer_bytes,
             "headroom_bytes": headroom}))
    if pfc is not None:
        # PFC state laws: XOFF only on the lossless class, hysteresis
        # respected both ways, and — the whole point of lossless
        # Ethernet — no lossless-class packet was ever dropped.
        if pfc.xoff_state & ~LOSSLESS_MASK:
            problems.append((
                "pfc-xoff-lossless",
                "XOFF asserted for a priority outside the lossless class",
                {"xoff_state": pfc.xoff_state,
                 "lossless_mask": LOSSLESS_MASK}))
        depth = mux.queue_occupancy[LOSSLESS_PRIORITY]
        asserted = pfc.xoff_state & LOSSLESS_MASK
        if asserted and depth <= pfc.xon_bytes:
            problems.append((
                "pfc-hysteresis",
                "lossless class still XOFF below the XON mark",
                {"priority": LOSSLESS_PRIORITY, "depth": depth,
                 "xon_bytes": pfc.xon_bytes}))
        if not asserted and depth > pfc.xoff_bytes:
            problems.append((
                "pfc-hysteresis",
                "lossless class above XOFF without asserting it",
                {"priority": LOSSLESS_PRIORITY, "depth": depth,
                 "xoff_bytes": pfc.xoff_bytes}))
        if pfc.lossless_drops:
            problems.append((
                "pfc-lossless-drop",
                "a lossless-class packet was dropped (headroom too small)",
                {"lossless_drops": pfc.lossless_drops}))

    pre_drops = stats.dropped - stats.dropped_after_enqueue
    if stats.offered != stats.enqueued + pre_drops:
        problems.append((
            "mux-admission-conservation",
            "arrivals != admitted + rejected",
            {"offered": stats.offered, "enqueued": stats.enqueued,
             "pre_enqueue_drops": pre_drops}))
    pre_drop_bytes = stats.bytes_dropped - stats.bytes_dropped_after_enqueue
    if stats.bytes_offered != (stats.bytes_enqueued + stats.bytes_trimmed
                               + pre_drop_bytes):
        problems.append((
            "mux-admission-conservation-bytes",
            "arrival bytes != admitted + trimmed-away + rejected bytes",
            {"bytes_offered": stats.bytes_offered,
             "bytes_enqueued": stats.bytes_enqueued,
             "bytes_trimmed": stats.bytes_trimmed,
             "pre_enqueue_drop_bytes": pre_drop_bytes}))
    if stats.enqueued != (stats.dequeued + stats.dropped_after_enqueue
                          + still_queued):
        problems.append((
            "mux-occupancy-conservation",
            "enqueued != dequeued + dropped_after_enqueue + still-queued",
            {"enqueued": stats.enqueued, "dequeued": stats.dequeued,
             "dropped_after_enqueue": stats.dropped_after_enqueue,
             "still_queued": still_queued}))
    if stats.bytes_enqueued != (stats.bytes_dequeued
                                + stats.bytes_dropped_after_enqueue
                                + mux.occupancy):
        problems.append((
            "mux-occupancy-conservation-bytes",
            "admitted bytes != dequeued + flushed + still-queued bytes",
            {"bytes_enqueued": stats.bytes_enqueued,
             "bytes_dequeued": stats.bytes_dequeued,
             "bytes_dropped_after_enqueue": stats.bytes_dropped_after_enqueue,
             "occupancy": mux.occupancy}))
    return problems


class RunAuditor:
    """Observes one run and checks its invariants.

    ``strict=True`` raises :class:`InvariantViolation` at the first
    broken law; the default audit mode accumulates everything into
    ``self.report``.  One auditor audits one run — reusing an instance
    would conflate two runs' clocks and ledgers.
    """

    def __init__(self, *, strict: bool = False) -> None:
        self.report = ValidationReport(strict=strict)
        self.sim = None
        self.network: Optional[Network] = None
        self.ctx = None
        self.attached = False
        self._last_now = -math.inf
        self._finalized = False

    # -- wiring -----------------------------------------------------------

    def attach(self, sim, network: Network, ctx=None) -> "RunAuditor":
        """Bind to a run's simulator/fabric; called by ``run(validate=)``
        before any flow starts.  ``ctx`` (when given) gets its
        ``auditor`` attribute set so senders install the burst hook."""
        if self.attached:
            raise RuntimeError("RunAuditor is single-run; already attached")
        self.attached = True
        self.sim = sim
        self.network = network
        self._last_now = sim.now
        if ctx is not None:
            ctx.auditor = self
            # kept so per-slice laws can reach run-scoped extras (the
            # hybrid controller lives at ctx.extra["hybrid"])
            self.ctx = ctx
        return self

    # -- recording --------------------------------------------------------

    def _violate(self, law: str, subject: str, message: str, **details) -> None:
        self.report.record(Violation(
            law=law, subject=subject,
            sim_time=float(self.sim.now) if self.sim is not None else -1.0,
            message=message, details=details))

    def _check(self, ok: bool, law: str, subject: str, message: str,
               **details) -> None:
        self.report.checks_run += 1
        if not ok:
            self._violate(law, subject, message, **details)

    # -- per-slice checks -------------------------------------------------

    def on_slice(self) -> None:
        """Engine, queue, port and RTO laws; runs at every drain-slice
        boundary (and once more inside :meth:`finalize`)."""
        sim = self.sim
        self._check(sim.now >= self._last_now,
                    "engine-clock-monotonic", "engine",
                    "clock went backwards across slices",
                    now=sim.now, previous=self._last_now)
        self._last_now = sim.now
        min_live = sim.peek_time()
        self._check(min_live is None or min_live >= sim.now,
                    "engine-no-past-event", "engine",
                    "a live event is scheduled before the current clock",
                    min_live_time=min_live, now=sim.now,
                    live_pending=sim.live_pending)
        for port in self.network.ports:
            self._audit_mux(port)
            self._audit_port(port)
        for controller in getattr(self.network, "pfc_controllers", []):
            self._audit_pfc_controller(controller)
        for switch in self.network.switches:
            if getattr(switch, "lb", None) is not None:
                self._audit_lb(switch)
        for sender in self._endpoints(WindowSender):
            self._audit_rto(sender)
            self._audit_ledger_order(sender)
        self._audit_hybrid()

    def on_restore(self) -> None:
        """Re-certify a run restored from a :mod:`repro.resilience`
        checkpoint before it is allowed to continue.

        A resumed graph is only trustworthy if the deserialized engine
        still satisfies the same laws the live engine did: no live event
        behind the restored clock, every queue ledger internally
        consistent, every armed RTO ahead of now.  That is exactly the
        per-slice audit — re-run against the restored state — plus a
        clock re-baseline, since ``_last_now`` from the checkpointed
        auditor already equals the restored ``sim.now`` and must not
        trip the monotonicity law spuriously.
        """
        self._last_now = min(self._last_now, self.sim.now)
        self.on_slice()

    def _audit_hybrid(self) -> None:
        """Laws of the flow-level fast path (:mod:`repro.sim.hybrid`).

        The controller keeps its own wire-byte ledger — everything a
        flow *offered* at admission must be accounted for as delivered
        (banked analytic progress), still remaining in the abstract
        set, or handed back to the packet model at demotion.  On top of
        that, the waterfilled rates must be feasible (no port's
        abstract aggregate above its raw capacity) and non-negative.
        """
        hybrid = None
        if self.ctx is not None:
            hybrid = self.ctx.extra.get("hybrid")
        if hybrid is None:
            return
        offered = hybrid.offered_wire_bytes
        delivered = hybrid.delivered_wire_bytes
        demoted = hybrid.demoted_wire_bytes
        remaining = hybrid.remaining_wire_bytes()
        tolerance = 1e-6 * (offered + 1.0)
        self._check(
            abs(offered - (delivered + remaining + demoted)) <= tolerance,
            "hybrid-byte-conservation", "hybrid",
            "offered wire bytes != delivered + remaining + demoted",
            offered=offered, delivered=delivered, remaining=remaining,
            demoted=demoted)
        port_rates: dict = {}
        for af in hybrid.abstract.values():
            self._check(af.wire_remaining >= 0.0,
                        "hybrid-remaining-nonnegative",
                        f"flow-{af.flow.flow_id}",
                        "abstract flow has negative remaining bytes",
                        remaining=af.wire_remaining)
            self._check(af.rate >= 0.0,
                        "hybrid-rate-nonnegative",
                        f"flow-{af.flow.flow_id}",
                        "abstract flow has a negative rate",
                        rate=af.rate)
            for port in af.path:
                port_rates[port] = port_rates.get(port, 0.0) + af.rate
        for port, total in port_rates.items():
            # rates were waterfilled against *available* capacity, which
            # never exceeds the raw link rate — so the raw rate bounds
            # the abstract aggregate regardless of measurement staleness
            capacity = port.rate_bps / 8.0
            self._check(total <= capacity * (1.0 + 1e-9) + 1e-6,
                        "hybrid-rate-feasible", port.name,
                        "abstract rate aggregate exceeds link capacity",
                        aggregate_rate=total, capacity=capacity)

    def _audit_mux(self, port) -> None:
        for law, message, details in audit_mux(port.mux):
            self._violate(law, port.name, message, **details)
        self.report.checks_run += 1

    def _audit_port(self, port) -> None:
        stats = port.mux.stats
        on_wire = 1 if port.busy else 0
        self._check(stats.dequeued == port.pkts_sent + on_wire,
                    "port-serialization", port.name,
                    "dequeues != completed transmissions + packet on wire",
                    dequeued=stats.dequeued, pkts_sent=port.pkts_sent,
                    busy=port.busy)
        in_serial = stats.bytes_dequeued - port.bytes_sent
        self._check(in_serial > 0 if port.busy else in_serial == 0,
                    "port-serialization-bytes", port.name,
                    "in-serialization bytes disagree with busy state",
                    in_serialization_bytes=in_serial, busy=port.busy)
        refs = port._pause_refs
        if refs is not None or port.paused_mask:
            mask = 0
            negative = 0
            for priority, count in enumerate(refs or ()):
                if count > 0:
                    mask |= 1 << priority
                elif count < 0:
                    negative += 1
            self._check(mask == port.paused_mask and negative == 0,
                        "pfc-pause-consistency", port.name,
                        "paused_mask disagrees with the pause ref-counts",
                        paused_mask=port.paused_mask, ref_mask=mask,
                        negative_refs=negative)

    def _audit_pfc_controller(self, controller) -> None:
        """Pause-state consistency between a switch's egress muxes, the
        controller's command ledger and the upstream ports it pauses."""
        subject = f"pfc@{controller.switch.name}"
        expected = 0
        for port in controller.switch.ports():
            pfc = port.mux.pfc
            if pfc is not None and pfc.controller is controller:
                expected |= pfc.xoff_state
        self._check(controller.commanded_mask == expected,
                    "pfc-command-consistency", subject,
                    "commanded pause mask disagrees with egress XOFF states",
                    commanded_mask=controller.commanded_mask,
                    egress_xoff_union=expected)
        self._check(controller.pending_ops >= 0,
                    "pfc-command-consistency", subject,
                    "negative in-flight PAUSE/RESUME count",
                    pending_ops=controller.pending_ops)
        if controller.pending_ops == 0:
            # quiescent command plane: every upstream transmitter must
            # hold exactly the commanded pauses (a PFC-storm injector
            # may add refs of its own, hence subset, not equality,
            # against the port's total paused_mask)
            for index, port in enumerate(controller.ingress_ports):
                delivered = controller.delivered_masks[index]
                self._check(delivered == controller.commanded_mask,
                            "pfc-pause-consistency", port.name,
                            "delivered pause mask trails the command "
                            "with nothing in flight",
                            delivered_mask=delivered,
                            commanded_mask=controller.commanded_mask)
                self._check(delivered & ~port.paused_mask == 0,
                            "pfc-pause-consistency", port.name,
                            "port dropped a pause the controller delivered",
                            delivered_mask=delivered,
                            paused_mask=port.paused_mask)

    def _audit_lb(self, switch) -> None:
        """Load-balancer state sanity: flowlet timestamps never come
        from the future and per-flow state stays well-formed."""
        now = self.sim.now
        subject = f"lb@{switch.name}"
        stale = 0
        bad_state = 0
        for state in switch.lb._flows.values():
            if state[0] > now + TIME_EPS:
                stale += 1
            if state[1] < 0:
                bad_state += 1
        self._check(stale == 0, "lb-flowlet-times", subject,
                    "flowlet last-seen timestamps in the future",
                    future_entries=stale, tracked_flows=len(switch.lb._flows))
        self._check(bad_state == 0, "lb-flowlet-state", subject,
                    "negative flowlet id / path index in balancer state",
                    bad_entries=bad_state)

    def _audit_rto(self, sender: WindowSender) -> None:
        event = sender._rto_event
        if sender.finished or event is None or event.cancelled:
            return
        subject = f"flow{sender.flow.flow_id}"
        now = self.sim.now
        self._check(sender._rto_deadline >= now - TIME_EPS,
                    "rto-deadline", subject,
                    "RTO armed with a deadline in the past",
                    deadline=sender._rto_deadline, now=now)
        self._check(event.time <= sender._rto_deadline + TIME_EPS,
                    "rto-deadline", subject,
                    "RTO timer scheduled after its own deadline",
                    event_time=event.time, deadline=sender._rto_deadline)

    def _audit_ledger_order(self, sender: WindowSender) -> None:
        """Both ledgers iterate in non-decreasing send time: the hole
        scan, ``TailLoop.purge`` and the ``_no_hole_floor`` read a
        *prefix* and are exact only under that order.  Per slice, not at
        drain end — a finished flow's ledgers are empty."""
        for name, ledger in (("outstanding", sender.outstanding),
                             ("lcp.outstanding",
                              self._secondary_outstanding(sender))):
            times = list(ledger.values())
            self._check(times == sorted(times),
                        "window-ledger-time-ordered",
                        f"flow{sender.flow.flow_id}",
                        f"{name} not in send-time order "
                        "(a seq re-timed in place?)", entries=len(times))

    # -- per-burst check (hooked from WindowSender.try_send) ---------------

    def on_send_burst(self, sender: WindowSender, pre_burst: int) -> None:
        """``len(outstanding) <= max(pre_burst, ceil(cwnd))`` after every
        send burst: a burst may top the window up to ``ceil(cwnd)`` but
        never overshoot it (a window *cut* below the current in-flight
        count legitimately leaves ``pre_burst`` outstanding — the burst
        then must not add anything on top)."""
        bound = max(pre_burst, math.ceil(sender.cwnd))
        self._check(len(sender.outstanding) <= bound,
                    "window-burst-bound", f"flow{sender.flow.flow_id}",
                    "send burst overshot the congestion window",
                    outstanding=len(sender.outstanding), cwnd=sender.cwnd,
                    pre_burst=pre_burst)

    # -- drain-end checks -------------------------------------------------

    def _endpoints(self, cls):
        seen = set()
        for host in self.network.hosts.values():
            for endpoint in host.endpoints.values():
                if id(endpoint) in seen or not isinstance(endpoint, cls):
                    continue
                seen.add(id(endpoint))
                yield endpoint

    @staticmethod
    def _secondary_outstanding(sender: WindowSender) -> dict:
        """Seqs the sender's second loop has in flight: they count toward
        ``pkts_transmitted`` without :meth:`WindowSender.transmit`."""
        return sender.lcp.outstanding if sender.lcp is not None else {}

    def audit_sender(self, sender: WindowSender) -> None:
        """The drain-end sender laws: at :meth:`finalize` for a sender
        still registered, and at retirement
        (:meth:`~repro.transport.base.TransportContext.retire`) for one
        that leaves its host."""
        subject = f"flow{sender.flow.flow_id}"
        now = self.sim.now
        delivered = sender.delivered
        n = sender.n_packets

        self._check(sender.cum <= n, "flow-cum-bound", subject,
                    "cumulative ack beyond the flow's packet count",
                    cum=sender.cum, n_packets=n)
        self._check(len(delivered) <= n, "flow-cum-bound", subject,
                    "more delivered seqs than the flow has packets",
                    delivered=len(delivered), n_packets=n)
        self._audit_scoreboard(sender, subject)
        overlap = len([s for s in sender.outstanding if s in delivered])
        self._check(overlap == 0, "flow-outstanding-disjoint", subject,
                    "seqs simultaneously delivered and outstanding",
                    overlap=overlap)
        late = [s for s, t in sender.outstanding.items() if t > now + TIME_EPS]
        self._check(not late, "flow-outstanding-times", subject,
                    "outstanding send times in the future",
                    future_entries=len(late))

        # pkts_transmitted == delivered + in-flight + retransmit waste,
        # with waste necessarily >= 0: each delivered seq and each
        # in-flight undelivered seq accounts for at least one distinct
        # transmission.
        in_flight = set(sender.outstanding)
        in_flight.update(self._secondary_outstanding(sender))
        in_flight_new = sum(1 for s in in_flight if s not in delivered)
        waste = sender.pkts_transmitted - len(delivered) - in_flight_new
        self._check(waste >= 0, "flow-tx-conservation", subject,
                    "transmissions < delivered + in-flight "
                    "(packets created from nothing)",
                    pkts_transmitted=sender.pkts_transmitted,
                    delivered=len(delivered), in_flight=in_flight_new,
                    retransmit_waste=waste)

    def _audit_receiver(self, receiver: WindowReceiver) -> None:
        subject = f"flow{receiver.flow.flow_id}"
        n = receiver.n_packets
        self._check(receiver.cum <= n, "recv-cum-bound", subject,
                    "receiver cum beyond the flow's packet count",
                    cum=receiver.cum, n_packets=n)
        self._audit_scoreboard(receiver, subject)
        self._check(receiver.data_pkts_received
                    == len(receiver.delivered) + receiver.dup_pkts_received,
                    "recv-counting", subject,
                    "data arrivals != unique deliveries + duplicates",
                    data_pkts_received=receiver.data_pkts_received,
                    delivered=len(receiver.delivered),
                    dup_pkts_received=receiver.dup_pkts_received)

    def _audit_scoreboard(self, owner, subject: str) -> None:
        """``sacked`` holds delivered seqs at or above ``cum`` only: a
        seq below it would be counted twice by ``delivered``, one at or
        past ``n_packets`` was never a packet of the flow."""
        cum, n = owner.cum, owner.n_packets
        stray = sorted(s for s in owner.sacked if not cum <= s < n)
        self._check(not stray, "seq-scoreboard", subject,
                    "sacked seqs outside [cum, n_packets)",
                    cum=cum, n_packets=n, stray=stray[:8],
                    n_stray=len(stray))

    def _audit_fabric_conservation(self) -> None:
        """End-to-end conservation over the whole fabric (packet and
        byte ledgers).  Every law is an exact equality: since the
        pipelined wire model, each port's in-flight packets live in its
        wire deque, so the in-propagation residual must equal the deque
        contents packet-for-packet and byte-for-byte (the historical
        check could only bound it by the heap size)."""
        net = self.network
        ports = net.ports
        hosts = net.hosts.values()
        switches = net.switches

        offered = sum(p.mux.stats.offered for p in ports)
        admit_killed = sum(p.fault_admit_drops for p in ports)
        host_sends = sum(h.pkts_to_fabric for h in hosts)
        forwarded = sum(s.pkts_forwarded for s in switches)
        self._check(host_sends + forwarded == offered + admit_killed,
                    "fabric-offer-conservation", "fabric",
                    "port offers != host sends + switch forwards",
                    host_sends=host_sends, switch_forwards=forwarded,
                    port_offers=offered, fault_admit_drops=admit_killed)

        bytes_offered = sum(p.mux.stats.bytes_offered for p in ports)
        admit_killed_bytes = sum(p.fault_admit_drop_bytes for p in ports)
        host_send_bytes = sum(h.bytes_to_fabric for h in hosts)
        forwarded_bytes = sum(s.bytes_forwarded for s in switches)
        self._check(host_send_bytes + forwarded_bytes
                    == bytes_offered + admit_killed_bytes,
                    "fabric-offer-conservation-bytes", "fabric",
                    "port offer bytes != host send + switch forward bytes",
                    host_send_bytes=host_send_bytes,
                    switch_forward_bytes=forwarded_bytes,
                    port_offer_bytes=bytes_offered,
                    fault_admit_drop_bytes=admit_killed_bytes)

        sent = sum(p.pkts_sent for p in ports)
        wire_killed = sum(p.fault_wire_drops for p in ports)
        arrivals = forwarded + sum(h.pkts_from_fabric for h in hosts)
        in_propagation = sent - wire_killed - arrivals
        on_wire = sum(len(p.wire) for p in ports)
        self._check(in_propagation == on_wire,
                    "fabric-packet-conservation", "fabric",
                    "in-propagation residual disagrees with the wire deques",
                    pkts_sent=sent, fault_wire_drops=wire_killed,
                    arrivals=arrivals, in_propagation=in_propagation,
                    on_wire=on_wire)

        sent_bytes = sum(p.bytes_sent for p in ports)
        wire_killed_bytes = sum(p.fault_wire_drop_bytes for p in ports)
        arrival_bytes = forwarded_bytes + sum(h.bytes_from_fabric
                                              for h in hosts)
        in_prop_bytes = sent_bytes - wire_killed_bytes - arrival_bytes
        on_wire_bytes = sum(p.wire.in_flight_bytes for p in ports)
        self._check(in_prop_bytes == on_wire_bytes,
                    "fabric-byte-conservation", "fabric",
                    "in-propagation byte residual disagrees with the "
                    "wire deques",
                    bytes_sent=sent_bytes,
                    fault_wire_drop_bytes=wire_killed_bytes,
                    arrival_bytes=arrival_bytes,
                    in_propagation_bytes=in_prop_bytes,
                    on_wire_bytes=on_wire_bytes)

    def _audit_engine_counters(self) -> None:
        """The engine's incremental dead-entry counter — and with it
        ``live_pending``, which is derived from it — must agree with a
        full heap scan.  O(heap), so only run once per audit
        (finalize), not per slice — the per-slice checks read the
        counters themselves."""
        sim = self.sim
        live = sum(1 for _entry in sim.live_entries())
        self._check(sim.live_pending == live,
                    "engine-dead-counter", "engine",
                    "incremental dead-entry counter disagrees with heap scan",
                    pending=sim.pending, live_pending=sim.live_pending,
                    scanned_live=live)

    def finalize(self) -> ValidationReport:
        """Drain-end harvest: one last slice check, then the transport
        and end-to-end conservation laws.  Idempotent."""
        if self._finalized:
            return self.report
        self._finalized = True
        self.on_slice()
        self._audit_engine_counters()
        for sender in self._endpoints(WindowSender):
            self.audit_sender(sender)
        for receiver in self._endpoints(WindowReceiver):
            self._audit_receiver(receiver)
        for endpoint in self._endpoints(MessageEndpoint):
            state = endpoint.state
            self._audit_scoreboard(state, f"flow{state.flow.flow_id}")
        self._audit_fabric_conservation()
        return self.report
