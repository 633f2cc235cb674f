"""Deterministic, seeded fault schedules.

A :class:`FaultPlan` is a declarative list of fault events — link
blackouts, flaps, Bernoulli loss windows, rate degradations, PFC storms —
plus a seed.  ``apply()`` resolves each event's port pattern against a
freshly built network (exact name first, then an ``fnmatch`` glob over
``Port.name``, e.g. ``"leaf0->spine*"``), instantiates the matching
injectors from :mod:`repro.faults.injectors`, schedules every
transition, and returns an :class:`ActiveFaults` handle the experiment
harness uses for live diagnosis (which links are down *right now*, how
many packets the plan has eaten) and for the ``RunHealth`` report.

Determinism: per-injector RNGs are seeded from
``f"{plan.seed}:{event_index}:{port.name}"`` (string seeding is stable
across processes, unlike ``hash()``), and random numbers are drawn only
while a window is active — so a plan replayed over the same scenario is
bit-identical, and two injectors never share an RNG stream.

Plans can also be written as compact spec strings (one per event) for
CLI plumbing — see :meth:`FaultPlan.parse`::

    down:leaf0->spine0:0.005:0.002        # blackout at 5ms for 2ms
    flap:leaf0->spine0:0.005:0.002:0.004:3
    loss:host0->sw0:0.02                  # 2% loss, whole run
    degrade:leaf*->spine0:0.1:0.002:0.01  # 10% of nominal rate
    pfcstorm:leaf0->host0:0.002:0.004     # pause P0 for 4ms (needs PFC)
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import ClassVar, Dict, List, Optional, Sequence, Tuple

from ..sim.engine import Simulator
from ..sim.network import Network
from .injectors import (
    INFINITY,
    LinkFaultInjector,
    LossInjector,
    PfcStormInjector,
    PortDegrader,
)


# ---------------------------------------------------------------------------
# fault event descriptions (pure data; resolved against a network on apply)
# ---------------------------------------------------------------------------
#
# Everything the plan knows about a fault kind is on its event class:
# ``kind`` (the spec's first field), ``spec`` (the ``--fault`` help
# fragment), ``from_args`` (the other spec fields -> event), ``validate``
# (raise ``ValueError`` naming the impossible parameter), ``inject`` (one
# injector on one port), ``describe`` and ``start`` / ``end``.


def _window(args: List[str], at: int) -> Tuple[float, float]:
    """Optional trailing ``[START[:END]]`` spec fields: the whole run."""
    start = float(args[at]) if len(args) > at else 0.0
    end = float(args[at + 1]) if len(args) > at + 1 else INFINITY
    return start, end


def _check_duration(name: str, value: float) -> None:
    if not 0.0 < value < INFINITY:
        raise ValueError(f"{name} {value!r} must be positive and finite")


def _check_window(event) -> None:
    if not event.end >= event.start:  # NaN fails; +inf is "the whole run"
        raise ValueError(f"window ends ({event.end!r}) before it starts "
                         f"({event.start!r}) or is NaN")


@dataclass(frozen=True)
class LinkDown:
    """One blackout: ``port`` goes dark at ``start`` for ``duration``."""

    port: str
    start: float
    duration: float

    kind: ClassVar[str] = "down"
    spec: ClassVar[str] = "down:PORT:START:DURATION"

    @classmethod
    def from_args(cls, args: List[str]) -> "LinkDown":
        return cls(args[0], float(args[1]), float(args[2]))

    @property
    def end(self) -> float:
        return self.start + self.duration

    def describe(self) -> str:
        return (f"down {self.port} "
                f"[{self.start:.6g}s, {self.end:.6g}s)")

    def validate(self) -> None:
        _check_duration("duration", self.duration)

    def inject(self, sim: Simulator, port, rng: random.Random):
        injector = LinkFaultInjector(sim, port).attach()
        injector.schedule_blackout(self.start, self.duration)
        return injector


@dataclass(frozen=True)
class LinkFlap:
    """A flapping link: ``cycles`` x (down ``down_time``, up ``up_time``)."""

    port: str
    start: float
    down_time: float
    up_time: float
    cycles: int = 1

    kind: ClassVar[str] = "flap"
    spec: ClassVar[str] = "flap:PORT:START:DOWN:UP[:CYCLES]"

    @classmethod
    def from_args(cls, args: List[str]) -> "LinkFlap":
        start, down_time, up_time = (float(a) for a in args[1:4])
        cycles = int(args[4]) if len(args) > 4 else 1
        return cls(args[0], start, down_time, up_time, cycles)

    @property
    def end(self) -> float:
        return self.start + self.cycles * (self.down_time + self.up_time)

    def describe(self) -> str:
        return (f"flap {self.port} x{self.cycles} "
                f"({self.down_time:.6g}s down / {self.up_time:.6g}s up) "
                f"from {self.start:.6g}s")

    def validate(self) -> None:
        _check_duration("down_time", self.down_time)
        if not 0.0 <= self.up_time < INFINITY:
            raise ValueError(
                f"up_time {self.up_time!r} must be finite and >= 0")
        if self.cycles < 1:
            raise ValueError(f"cycles {self.cycles!r} must be >= 1")

    def inject(self, sim: Simulator, port, rng: random.Random):
        injector = LinkFaultInjector(sim, port).attach()
        injector.schedule_flap(self.start, self.down_time, self.up_time,
                               self.cycles)
        return injector


@dataclass(frozen=True)
class PacketLoss:
    """Bernoulli drop of every packet offered to ``port`` in a window."""

    port: str
    rate: float
    start: float = 0.0
    end: float = INFINITY

    kind: ClassVar[str] = "loss"
    spec: ClassVar[str] = "loss:PORT:RATE[:START[:END]]"

    @classmethod
    def from_args(cls, args: List[str]) -> "PacketLoss":
        return cls(args[0], float(args[1]), *_window(args, 2))

    def describe(self) -> str:
        return (f"loss {self.rate:.3g} {self.port} "
                f"[{self.start:.6g}s, {self.end:.6g}s)")

    def validate(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(
                f"rate {self.rate!r} is not a probability in [0, 1]")
        _check_window(self)

    def inject(self, sim: Simulator, port, rng: random.Random):
        return LossInjector(sim, port, self.rate, rng,
                            self.start, self.end).attach()


@dataclass(frozen=True)
class RateDegrade:
    """Scale ``port``'s rate by ``factor`` (< 1) for a window."""

    port: str
    factor: float
    start: float
    end: float = INFINITY

    kind: ClassVar[str] = "degrade"
    spec: ClassVar[str] = "degrade:PORT:FACTOR:START[:END]"

    @classmethod
    def from_args(cls, args: List[str]) -> "RateDegrade":
        return cls(args[0], float(args[1]), *_window(args, 2))

    def describe(self) -> str:
        return (f"degrade x{self.factor:.3g} {self.port} "
                f"[{self.start:.6g}s, {self.end:.6g}s)")

    def validate(self) -> None:
        if not 0.0 < self.factor <= 1.0:
            raise ValueError(f"factor {self.factor!r} must be in (0, 1] — it "
                             f"scales the nominal rate down")
        _check_window(self)

    def inject(self, sim: Simulator, port, rng: random.Random):
        injector = PortDegrader(sim, port, self.factor)
        injector.schedule(self.start, self.end)
        return injector


@dataclass(frozen=True)
class PfcStorm:
    """A jammed receiver pausing ``priority`` on ``port`` for a window.

    Requires a PFC-enabled fabric to cascade (the paused port backs up
    into its switch, which pauses its own upstreams); on a lossy fabric
    it simply stalls the one port's lossless-priority drain.
    """

    port: str
    start: float
    duration: float
    priority: int = 0

    kind: ClassVar[str] = "pfcstorm"
    spec: ClassVar[str] = "pfcstorm:PORT:START:DURATION[:PRIORITY]"

    @classmethod
    def from_args(cls, args: List[str]) -> "PfcStorm":
        priority = int(args[3]) if len(args) > 3 else 0
        return cls(args[0], float(args[1]), float(args[2]), priority)

    @property
    def end(self) -> float:
        return self.start + self.duration

    def describe(self) -> str:
        return (f"pfcstorm P{self.priority} {self.port} "
                f"[{self.start:.6g}s, {self.end:.6g}s)")

    def validate(self) -> None:
        _check_duration("duration", self.duration)
        if not 0 <= self.priority < 8:
            raise ValueError(f"priority {self.priority!r} must be in [0, 8)")

    def inject(self, sim: Simulator, port, rng: random.Random):
        injector = PfcStormInjector(sim, port, self.priority)
        injector.schedule(self.start, self.end)
        return injector


#: The one table of fault kinds: spec-string kind -> event class.
FAULT_KINDS: Dict[str, type] = {
    cls.kind: cls for cls in (LinkDown, LinkFlap, PacketLoss, RateDegrade,
                              PfcStorm)}


# ---------------------------------------------------------------------------
# the plan
# ---------------------------------------------------------------------------


@dataclass
class FaultPlan:
    """A seeded, deterministic schedule of fault events."""

    events: List[object] = field(default_factory=list)
    seed: int = 0

    def __post_init__(self) -> None:
        """Reject impossible fault timings/parameters at construction
        time, with errors that name the offending event — not at
        ``apply()`` time deep inside a sweep worker."""
        seen = set()
        for index, event in enumerate(self.events):
            if not isinstance(event, tuple(FAULT_KINDS.values())):
                raise TypeError(f"not a fault event: {event!r}")
            try:
                if not 0.0 <= event.start < INFINITY:
                    raise ValueError(f"start time {event.start!r} must be "
                                     f"finite and not negative")
                event.validate()
            except ValueError as exc:
                raise ValueError(
                    f"events[{index}] ({event.describe()}): {exc}") from None
            # Injector identity is (event, port): two *identical* events
            # would stack two injectors with different RNG streams on the
            # same ports — almost certainly a copy-paste bug, and
            # impossible to tell apart in RunHealth's fault windows.
            if event in seen:
                raise ValueError(
                    f"events[{index}]: duplicate fault event "
                    f"{event.describe()!r} — each injector needs a "
                    f"distinct (kind, port, timing) identity")
            seen.add(event)

    # -- construction -----------------------------------------------------

    @classmethod
    def parse(cls, specs: Sequence[str], seed: int = 0) -> "FaultPlan":
        """Build a plan from compact colon-separated spec strings."""
        events: List[object] = []
        for spec in specs:
            fields = spec.split(":")
            kind, args = fields[0].lower(), fields[1:]
            try:
                if kind not in FAULT_KINDS:
                    raise ValueError(f"unknown fault kind {kind!r}")
                event_cls = FAULT_KINDS[kind]
                extra = args[event_cls.spec.count(":"):]
                if extra:
                    raise ValueError(f"extra field(s) {':'.join(extra)!r} "
                                     f"(expected {event_cls.spec})")
                events.append(event_cls.from_args(args))
            except (IndexError, ValueError) as exc:
                raise ValueError(f"bad fault spec {spec!r}: {exc}") from exc
        return cls(events, seed=seed)

    def describe(self) -> List[str]:
        """One human-readable line per event (the RunHealth fault windows)."""
        return [event.describe() for event in self.events]

    # -- application ------------------------------------------------------

    def apply(self, network: Network, sim: Simulator) -> "ActiveFaults":
        """Attach injectors for every event; returns the live handle."""
        active = ActiveFaults(sim)
        for index, event in enumerate(self.events):
            for port in network.find_ports(event.port):
                rng = random.Random(f"{self.seed}:{index}:{port.name}")
                injector = event.inject(sim, port, rng)
                if isinstance(injector, LinkFaultInjector):
                    active.link_injectors.append(injector)
                active.injectors.append(injector)
                active.windows.append((event.describe(), event.start, event.end))
        return active


# ---------------------------------------------------------------------------
# runtime state
# ---------------------------------------------------------------------------


class ActiveFaults:
    """Live view over a plan applied to one network build.

    The runner's watchdog consults this to tell a genuine stall from a
    fault the transport is expected to ride out, and the RunHealth
    report uses it to name the dead links at stall time.
    """

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.injectors: List[object] = []
        self.link_injectors: List[LinkFaultInjector] = []
        # (description, start, end) per injector, for diagnostics
        self.windows: List[Tuple[str, float, float]] = []

    # -- diagnosis --------------------------------------------------------

    def down_links(self) -> List[str]:
        """Names of ports that are down right now (deduplicated)."""
        names = []
        for injector in self.link_injectors:
            if injector.is_down and injector.port.name not in names:
                names.append(injector.port.name)
        return names

    def active_faults(self, now: Optional[float] = None) -> List[str]:
        """Descriptions of fault windows covering ``now``."""
        now = self.sim.now if now is None else now
        return [desc for desc, start, end in self.windows
                if start <= now < end]

    def any_active_or_recent(self, now: float, grace: float = 0.0) -> bool:
        """True while any fault window is open or ended < ``grace`` ago.

        The watchdog must not declare a stall while a fault is active
        (the whole point is surviving it) nor immediately after — the
        transport gets a grace period, sized around the RTO cap, to
        retransmit into the healed fabric.
        """
        for _desc, start, end in self.windows:
            if start <= now and now < end + grace:
                return True
        return False

    # -- accounting -------------------------------------------------------

    @property
    def pkts_dropped(self) -> int:
        return sum(injector.pkts_dropped for injector in self.injectors)

    def describe_windows(self) -> List[str]:
        return [desc for desc, _s, _e in self.windows]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<ActiveFaults {len(self.injectors)} injectors, "
                f"{self.pkts_dropped} dropped>")
