"""Output port: a strict-priority mux drained by a point-to-point link.

A :class:`Port` is the unit of contention in the simulator.  Every device
(host NIC or switch port) owns one Port per outgoing link.  When a packet is
enqueued and the transmitter is idle, transmission begins immediately;
otherwise the packet waits in the mux.  Completion of a transmission hands
the packet to the port's :class:`Wire`, which delivers it to the peer after
the propagation delay, and pulls the next packet from the mux.

The wire is a *pipelined* FIFO modelled after htsim's pipe: a deque of
in-flight ``(arrival_time, seq, pkt)`` entries with exactly **one**
head-arrival heap entry per link, instead of one heap event per
in-flight packet.  FIFO delivery is exact — the port serializes in order
and ``prop_delay`` is constant, so arrival times are strictly increasing —
and bit-identity with the legacy one-event-per-packet model is guaranteed
by reserving each arrival's tie-break seq at serialization-completion time
(see :meth:`~repro.sim.engine.Simulator.reserve_seq`).

Serialization completions and head arrivals are *direct* heap entries
``(time, seq, bound method, pkt_or_None)``, pushed inline (the three
lines of :meth:`~repro.sim.engine.Simulator.schedule_direct`): no
``Event`` is allocated on the packet path, and the one revocation a
wire needs, :meth:`Wire.flush`, goes through ``Simulator.kill``.
Those pushes are the only inlined copies here: every admission goes
through :meth:`Port.send` and every dequeue through
:meth:`~repro.sim.queues.PriorityMux.dequeue`.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import List, Optional

from .engine import Simulator
from .packet import NUM_PRIORITIES, Packet
from .queues import PriorityMux


class FaultChain:
    """Chain-of-responsibility over a port's attached fault injectors.

    An injector is any object exposing ``admit(pkt) -> bool`` (called
    when a packet is offered to the port; False = drop before enqueue)
    and ``transmit(pkt) -> bool`` (called when serialization completes;
    False = the packet is lost on the wire and never reaches the peer).
    Ports carry no chain at all (``fault_chain is None``) until the
    first injector attaches, so the fault machinery costs nothing when
    unused.
    """

    __slots__ = ("injectors",)

    def __init__(self) -> None:
        self.injectors: list = []

    def admit(self, pkt: Packet) -> bool:
        for injector in self.injectors:
            if not injector.admit(pkt):
                return False
        return True

    def transmit(self, pkt: Packet) -> bool:
        for injector in self.injectors:
            if not injector.transmit(pkt):
                return False
        return True


class Wire:
    """The propagation pipe between a port and its peer.

    ``pending`` holds every in-flight packet as ``(arrival_time, seq,
    pkt, event)`` in FIFO order.  In pipelined mode (the default) only
    the head has a heap entry — a direct one, so ``event`` is None in
    the tuples and :attr:`armed` says whether it is resident — and
    delivering the head arms the next entry with its *reserved* seq.
    Legacy mode schedules one cancellable event per packet — the
    historical model, kept so the equivalence suite can pin
    bit-identity between the two.

    Either way the deque is the authoritative record of what is on the
    wire: the invariant auditor reads it for the fabric in-propagation
    residual, and :meth:`flush` (link failure mid-flight) drops exactly
    its contents.
    """

    # Flip to False to build new wires in legacy one-event-per-packet
    # mode (tests/test_wire_equivalence.py monkeypatches this).
    PIPELINED_DEFAULT = True

    __slots__ = ("sim", "port", "pending", "pipelined",
                 "_deliver_cb", "_recv_cb")

    def __init__(self, sim: Simulator, port: "Port") -> None:
        self.sim = sim
        self.port = port
        self.pending: deque = deque()
        self.pipelined = self.PIPELINED_DEFAULT
        # bound once: the head-arrival callback is installed once per
        # packet, and binding it per install shows up in profiles
        self._deliver_cb = self._deliver
        # peer.receive, bound lazily on first delivery (the peer is
        # fixed after Port construction — nothing ever reassigns it)
        self._recv_cb = None

    def __getstate__(self) -> dict:
        """Checkpoint snapshot: the bound-callback caches are rebuilt on
        restore instead of being pickled (pickling them would only
        duplicate the bound-method objects in the snapshot)."""
        return {
            "sim": self.sim,
            "port": self.port,
            "pending": self.pending,
            "pipelined": self.pipelined,
        }

    def __setstate__(self, state: dict) -> None:
        self.sim = state["sim"]
        self.port = state["port"]
        self.pending = state["pending"]
        self.pipelined = state["pipelined"]
        self._deliver_cb = self._deliver
        self._recv_cb = None  # rebound lazily on first delivery

    @property
    def armed(self) -> bool:
        """Whether the head-arrival entry is resident in the heap: a
        pipelined wire keeps exactly one while anything is in flight."""
        return self.pipelined and bool(self.pending)

    def _deliver(self, _arg) -> None:
        """Head arrival: hand the packet to the peer, re-arm for the next.

        The next entry is armed *before* the peer callback runs so that
        whenever any other event executes, a non-empty wire always has
        its head in the heap — the same visibility the legacy model
        provides to heap-inspecting diagnostics.
        """
        pending = self.pending
        pkt = pending.popleft()[2]
        if pending:
            # schedule_direct, inlined (hot: once per pipelined packet)
            head = pending[0]
            sim = self.sim
            heap = sim._heap
            heappush(heap, (head[0], head[1], self._deliver_cb, None))
            if len(heap) > sim.peak_pending:
                sim.peak_pending = len(heap)
        recv = self._recv_cb
        if recv is None:
            recv = self._recv_cb = self.port.peer.receive
        recv(pkt)

    def _deliver_legacy(self) -> None:
        # events fire in arrival order and arrivals are FIFO, so the
        # head of the deque is always the packet this event carries
        _arrival, _seq, pkt, _event = self.pending.popleft()
        self.port.peer.receive(pkt)

    def flush(self) -> List[Packet]:
        """Drop every in-flight packet (yanked cable); returns them.

        The caller is responsible for accounting — see
        :meth:`Port.flush_wire`, which books them as wire-fault losses.
        """
        if self.armed:
            # the hot path carries no handle for the head: revoke by seq
            self.sim.kill(self.pending[0][1])
        flushed: List[Packet] = []
        for _arrival, _seq, pkt, event in self.pending:
            if event is not None:
                event.cancel()
            flushed.append(pkt)
        self.pending.clear()
        return flushed

    def __len__(self) -> int:
        return len(self.pending)

    @property
    def in_flight_bytes(self) -> int:
        return sum(entry[2].size for entry in self.pending)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mode = "pipelined" if self.pipelined else "legacy"
        return f"<Wire {self.port.name} {mode} in_flight={len(self.pending)}>"


class Port:
    """A transmitter + queue attached to one end of a link.

    Parameters
    ----------
    sim:
        The simulation engine.
    rate_bps:
        Link capacity in bits per second (the port degrader rescales it).
    prop_delay:
        One-way propagation delay in seconds.
    mux:
        The priority mux buffering packets awaiting transmission.
    peer:
        The device at the other end; must expose ``receive(pkt)``.
    name:
        Human-readable identifier for tracing.
    """

    __slots__ = (
        "sim", "rate_bps", "prop_delay", "mux", "peer", "name",
        "wire", "busy", "bytes_sent", "pkts_sent", "busy_time", "_tx_start",
        "_tx_cb", "fault_chain",
        "fault_admit_drops", "fault_admit_drop_bytes",
        "fault_wire_drops", "fault_wire_drop_bytes",
        "paused_mask", "pause_hook", "pauses_received", "pause_seconds",
        "_pause_refs", "_pause_started",
    )

    def __init__(
        self,
        sim: Simulator,
        rate_bps: float,
        prop_delay: float,
        mux: PriorityMux,
        peer=None,
        name: str = "",
    ) -> None:
        self.sim = sim
        self.rate_bps = rate_bps
        self.prop_delay = prop_delay
        self.mux = mux
        self.peer = peer
        self.name = name
        self.wire = Wire(sim, self)
        self.busy = False
        self.bytes_sent = 0
        self.pkts_sent = 0
        self.busy_time = 0.0
        self._tx_start = 0.0
        self._tx_cb = self._tx_done  # bound once; installed per packet
        self.fault_chain: Optional[FaultChain] = None
        # Conservation-ledger counters (repro.validate): packets a fault
        # chain killed before the mux saw them vs. on the wire after
        # serialization.  Injectors keep their own totals; these split
        # the loss by *where* it happened, which the injector totals
        # (admit + wire + flush combined) cannot.
        self.fault_admit_drops = 0
        self.fault_admit_drop_bytes = 0
        self.fault_wire_drops = 0
        self.fault_wire_drop_bytes = 0
        # PFC pause state: a bitmask of priorities this port must not
        # drain.  Ref-counted per priority (several downstream muxes —
        # or a PFC-storm injector — may pause the same class at once);
        # the lazy lists keep the common lossy port at two None slots.
        self.paused_mask = 0
        self.pause_hook = None  # fn(port, priority, paused: bool)
        self.pauses_received = 0
        self.pause_seconds = 0.0
        self._pause_refs: Optional[list] = None
        self._pause_started: Optional[list] = None

    def __getstate__(self) -> dict:
        """Checkpoint snapshot: same contract as :meth:`Wire.__getstate__`
        — the ``_tx_cb`` bound-callback cache is rebuilt on restore."""
        return {name: getattr(self, name) for name in self.__slots__
                if name != "_tx_cb"}

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            setattr(self, name, value)
        self._tx_cb = self._tx_done

    # -- fault injection --------------------------------------------------

    def attach_fault(self, injector) -> None:
        """Add a fault injector to this port's chain (created lazily)."""
        if self.fault_chain is None:
            self.fault_chain = FaultChain()
        self.fault_chain.injectors.append(injector)

    def flush_wire(self) -> int:
        """Drop every packet propagating on this link (dead link).

        Flushed packets already counted as transmitted (``pkts_sent``)
        but will never arrive, so they are booked as wire-fault losses —
        the same ledger a ``transmit()`` veto feeds — keeping the
        fabric's packet/byte conservation laws exact.
        """
        flushed = self.wire.flush()
        for pkt in flushed:
            self.fault_wire_drops += 1
            self.fault_wire_drop_bytes += pkt.size
        return len(flushed)

    # -- PFC pause/resume -------------------------------------------------

    def pfc_pause(self, priority: int) -> None:
        """A PAUSE frame for ``priority`` arrived: stop draining it.

        Ref-counted — the priority resumes only once every pauser has
        sent its RESUME.  An in-progress transmission is never aborted
        (real PFC is also packet-granular); the pause takes effect at
        the next dequeue decision.
        """
        refs = self._pause_refs
        if refs is None:
            refs = self._pause_refs = [0] * NUM_PRIORITIES
            self._pause_started = [0.0] * NUM_PRIORITIES
        self.pauses_received += 1
        refs[priority] += 1
        if refs[priority] == 1:
            self.paused_mask |= 1 << priority
            self._pause_started[priority] = self.sim.now
            if self.pause_hook is not None:
                self.pause_hook(self, priority, True)

    def pfc_resume(self, priority: int) -> None:
        """A RESUME (PAUSE with zero quanta) arrived: drop one pause ref."""
        refs = self._pause_refs
        if refs is None or refs[priority] == 0:
            return
        refs[priority] -= 1
        if refs[priority] == 0:
            self.paused_mask &= ~(1 << priority)
            self.pause_seconds += self.sim.now - self._pause_started[priority]
            if self.pause_hook is not None:
                self.pause_hook(self, priority, False)
            if not self.busy and self.mux.nonempty_mask & ~self.paused_mask:
                self._start_next()

    def total_pause_seconds(self, now: float) -> float:
        """Cumulative paused time across priorities, open intervals included."""
        total = self.pause_seconds
        if self.paused_mask:
            mask = self.paused_mask
            started = self._pause_started
            while mask:
                bit = mask & -mask
                mask ^= bit
                total += now - started[bit.bit_length() - 1]
        return total

    # -- transmission -----------------------------------------------------

    def send(self, pkt: Packet) -> bool:
        """Enqueue ``pkt`` for transmission.  Returns False if dropped."""
        chain = self.fault_chain
        if chain is not None and not chain.admit(pkt):
            self.fault_admit_drops += 1
            self.fault_admit_drop_bytes += pkt.size
            return False
        if not self.mux.enqueue(pkt):
            return False
        if not self.busy:
            self._start_next()
        return True

    def _start_next(self) -> None:
        pkt = self.mux.dequeue(self.paused_mask)
        if pkt is None:
            self.busy = False
            return
        sim = self.sim
        now = sim.now
        self.busy = True
        self._tx_start = now
        # Inlined units.serialization_delay.  Deliberately a division,
        # not a product with a cached ``8.0 / rate_bps``: the reciprocal
        # double-rounds (~25-40% of sizes differ in the last ulp), which
        # would break bit-identical reproduction.
        time = now + pkt.size * 8.0 / self.rate_bps
        # schedule_direct, inlined: this push runs once per serialized
        # packet (docs/architecture.md, "Inlining discipline")
        sim._seq = seq = sim._seq + 1
        heap = sim._heap
        heappush(heap, (time, seq, self._tx_cb, pkt))
        if len(heap) > sim.peak_pending:
            sim.peak_pending = len(heap)

    def _tx_done(self, pkt: Packet) -> None:
        self.bytes_sent += pkt.size
        self.pkts_sent += 1
        self.busy_time += self.sim.now - self._tx_start
        chain = self.fault_chain
        if chain is not None and not chain.transmit(pkt):
            self.fault_wire_drops += 1
            self.fault_wire_drop_bytes += pkt.size
            self._start_next()  # lost on the wire (link down, ...)
            return
        if self.peer is not None:
            # Put the packet onto the wire (inlined: once per transmitted
            # packet): reserve the arrival's tie-break seq now — exactly
            # the one the legacy model's ``schedule`` would consume —
            # append to the in-flight deque, and arm the head entry only
            # when the wire was idle.
            wire = self.wire
            sim = self.sim
            arrival = sim.now + self.prop_delay
            sim._seq = seq = sim._seq + 1
            if wire.pipelined:
                pending = wire.pending
                if not pending:
                    # schedule_direct, inlined (see _start_next)
                    heap = sim._heap
                    heappush(heap, (arrival, seq, wire._deliver_cb, None))
                    if len(heap) > sim.peak_pending:
                        sim.peak_pending = len(heap)
                pending.append((arrival, seq, pkt, None))
            else:
                wire.pending.append((arrival, seq, pkt, sim.schedule_reserved(
                    arrival, seq, wire._deliver_legacy)))
        # _start_next's idle fast path, hoisted: after a transmission the
        # mux is empty more often than not, and the frame is measurable
        if self.mux.nonempty_mask:
            self._start_next()
        else:
            self.busy = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Port {self.name} rate={self.rate_bps/1e9:.0f}Gbps busy={self.busy}>"
