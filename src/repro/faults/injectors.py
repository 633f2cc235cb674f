"""Fault injectors: objects that sit on a port's fault chain.

Every injector wraps an existing :class:`~repro.sim.link.Port` via the
two chain-of-responsibility hooks the port exposes (see
``Port.attach_fault``):

* ``admit(pkt)``    — packet offered to the port; returning False drops
  it before it is enqueued (ingress loss, dead link).
* ``transmit(pkt)`` — serialization just finished; returning False loses
  the packet on the wire (dead link).

Injectors never subclass the simulator primitives and attach lazily, so
a run without faults pays nothing: ``Port.fault_chain`` stays ``None``
and the hot path takes a single predictable branch.

All randomness is drawn from per-injector ``random.Random`` instances
seeded by the :class:`~repro.faults.plan.FaultPlan`, and random numbers
are only consumed while the injector's window is active — so the same
plan over the same scenario reproduces the same packet-level behaviour.
"""

from __future__ import annotations

import random
from typing import Optional

from ..sim.engine import Simulator
from ..sim.link import Port
from ..sim.packet import Packet

INFINITY = float("inf")


class Injector:
    """Base injector: transparent on both hooks, tracks its port."""

    def __init__(self, sim: Simulator, port: Port) -> None:
        self.sim = sim
        self.port = port
        self.pkts_dropped = 0
        self.attached = False

    def attach(self) -> "Injector":
        if not self.attached:
            self.port.attach_fault(self)
            self.attached = True
        return self

    # -- chain hooks ------------------------------------------------------

    def admit(self, pkt: Packet) -> bool:
        return True

    def transmit(self, pkt: Packet) -> bool:
        return True


class LinkFaultInjector(Injector):
    """Takes a port down and up on schedule (blackouts and flaps).

    While down, newly offered packets are dropped at admission, the
    packet being serialized (if any) is lost on the wire, everything
    waiting in the mux is flushed, and the bits already propagating on
    the link are lost with it — exactly what a yanked cable does.
    """

    def __init__(self, sim: Simulator, port: Port) -> None:
        super().__init__(sim, port)
        self.is_down = False
        # Telemetry hook, fired as ``hook(port, is_down)`` on every
        # open/close transition; chain additional consumers with
        # :func:`repro.obs.hooks.chain` rather than assigning over it.
        self.transition_hook = None

    # -- schedule targets -------------------------------------------------

    def down(self) -> None:
        if self.is_down:
            return
        self.is_down = True
        self.pkts_dropped += self.port.mux.flush()
        # in-flight packets die with the link; flush_wire books them as
        # wire-fault losses so fabric conservation stays exact
        self.pkts_dropped += self.port.flush_wire()
        if self.transition_hook is not None:
            self.transition_hook(self.port, True)

    def up(self) -> None:
        if not self.is_down:
            return
        self.is_down = False
        if self.transition_hook is not None:
            self.transition_hook(self.port, False)

    def schedule_blackout(self, start: float, duration: float) -> None:
        self.sim.schedule_at(start, self.down)
        self.sim.schedule_at(start + duration, self.up)

    def schedule_flap(self, start: float, down_time: float,
                      up_time: float, cycles: int) -> None:
        t = start
        for _ in range(cycles):
            self.sim.schedule_at(t, self.down)
            self.sim.schedule_at(t + down_time, self.up)
            t += down_time + up_time

    # -- chain hooks ------------------------------------------------------

    def admit(self, pkt: Packet) -> bool:
        if self.is_down:
            self.pkts_dropped += 1
            return False
        return True

    def transmit(self, pkt: Packet) -> bool:
        if self.is_down:
            self.pkts_dropped += 1
            return False
        return True


class LossInjector(Injector):
    """Seeded Bernoulli per-packet drop at a port within a time window."""

    def __init__(self, sim: Simulator, port: Port, rate: float,
                 rng: random.Random, start: float = 0.0,
                 end: float = INFINITY) -> None:
        super().__init__(sim, port)
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"loss rate must be in [0, 1], got {rate}")
        self.rate = rate
        self.rng = rng
        self.start = start
        self.end = end

    def admit(self, pkt: Packet) -> bool:
        now = self.sim.now
        if self.start <= now < self.end and self.rng.random() < self.rate:
            self.pkts_dropped += 1
            return False
        return True


class PortDegrader:
    """Temporary rate reduction modelling a sick NIC or ASIC lane.

    Not a packet filter: it rescales ``Port.rate_bps`` for a window, so
    subsequent serializations slow down while a packet already on the
    wire finishes at the old rate.  Attaching costs nothing on the
    per-packet path.
    """

    def __init__(self, sim: Simulator, port: Port, factor: float) -> None:
        if factor <= 0:
            raise ValueError(f"degrade factor must be > 0, got {factor}")
        self.sim = sim
        self.port = port
        self.factor = factor
        self.active = False
        self._original_rate: Optional[float] = None
        self.pkts_dropped = 0  # uniform counter interface; always 0

    def degrade(self) -> None:
        if self.active:
            return
        self.active = True
        self._original_rate = self.port.rate_bps
        self.port.rate_bps = self._original_rate * self.factor

    def restore(self) -> None:
        if not self.active:
            return
        self.active = False
        self.port.rate_bps = self._original_rate

    def schedule(self, start: float, end: float) -> None:
        self.sim.schedule_at(start, self.degrade)
        if end != INFINITY:
            self.sim.schedule_at(end, self.restore)


class PfcStormInjector:
    """A malfunctioning receiver blasting PAUSE frames (PFC storm).

    Not a packet filter: for the window it holds one extra pause
    reference for ``priority`` on the port — exactly what an endless
    stream of XOFF quanta from a jammed NIC does.  On a PFC-enabled
    fabric the paused downlink backs traffic up into the switch, whose
    own lossless thresholds then pause *its* upstreams: the classic
    head-of-line-blocking cascade spreading from one sick host.
    """

    def __init__(self, sim: Simulator, port: Port, priority: int = 0) -> None:
        if not 0 <= priority < 8:
            raise ValueError(f"priority must be in [0, 8), got {priority}")
        self.sim = sim
        self.port = port
        self.priority = priority
        self.active = False
        self.pkts_dropped = 0  # uniform counter interface; always 0

    def storm(self) -> None:
        if self.active:
            return
        self.active = True
        self.port.pfc_pause(self.priority)

    def calm(self) -> None:
        if not self.active:
            return
        self.active = False
        self.port.pfc_resume(self.priority)

    def schedule(self, start: float, end: float) -> None:
        self.sim.schedule_at(start, self.storm)
        if end != INFINITY:
            self.sim.schedule_at(end, self.calm)
