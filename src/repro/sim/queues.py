"""Switch and NIC output queues.

The paper only needs commodity-switch features (§2.2): strict-priority
queueing, RED/ECN marking with a single threshold K (Eq. 3), and a shared
per-port buffer.  Two research features used by baselines are also here:

* **NDP packet trimming** — when the queue is full, cut the payload and
  enqueue the 64-byte header in the highest-priority queue instead of
  dropping.
* **Aeolus selective dropping** — drop *unscheduled* (pre-credit) packets
  as soon as occupancy exceeds a threshold, so that first-RTT blasts cannot
  push out scheduled traffic.

A :class:`PriorityMux` owns eight FIFO queues sharing one buffer pool and
dequeues in strict-priority order.  The owning
:class:`~repro.sim.link.Port` drains it through :meth:`PriorityMux.dequeue`,
skipping the priorities PFC has paused.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..obs.hooks import chain
from .packet import HEADER, HEADER_BYTES, NUM_PRIORITIES, Packet


#: The one lossless (PFC-protected) class.  Lossy priorities keep the
#: plain admission checks on a PFC port.
LOSSLESS_PRIORITY = 0
LOSSLESS_MASK = 1 << LOSSLESS_PRIORITY


@dataclass(frozen=True)
class PfcConfig:
    """Priority Flow Control (IEEE 802.1Qbb) thresholds for one port.

    The lossless priority's queue crossing ``xoff_bytes`` sends PAUSE
    upstream; draining back below ``xon_bytes`` sends RESUME.  The
    hysteresis band (xon < xoff) stops pause/resume flapping.
    ``headroom_bytes`` is buffer *beyond* the shared pool reserved for
    in-flight bytes that arrive after XOFF was sent but before the
    upstream sender actually stopped (one link RTT plus a full-size
    packet per upstream port, in real ASICs); with adequate headroom a
    lossless class never drops.
    """

    xoff_bytes: int
    xon_bytes: int
    headroom_bytes: int

    def __post_init__(self) -> None:
        if not 0 <= self.xon_bytes <= self.xoff_bytes:
            raise ValueError(
                f"need 0 <= xon ({self.xon_bytes}) <= xoff "
                f"({self.xoff_bytes})")
        if self.headroom_bytes < 0:
            raise ValueError("headroom_bytes must be >= 0")

    def make_state(self) -> "PfcState":
        return PfcState(self)


class PfcState:
    """Mutable per-mux PFC state built from a :class:`PfcConfig`.

    ``xoff_state`` is :data:`LOSSLESS_MASK` while the lossless class
    asserts XOFF, else 0; the attached controller (wired by
    ``Network.enable_pfc``) turns the edges into PAUSE/RESUME deliveries
    to upstream ports.  ``lossless_drops`` must stay zero.
    """

    __slots__ = ("xoff_bytes", "xon_bytes", "headroom_bytes",
                 "xoff_state", "lossless_drops", "controller")

    def __init__(self, config: PfcConfig) -> None:
        self.xoff_bytes = config.xoff_bytes
        self.xon_bytes = config.xon_bytes
        self.headroom_bytes = config.headroom_bytes
        self.xoff_state = 0
        self.lossless_drops = 0
        self.controller = None


class QueueStats:
    """Counters every queue keeps; cheap enough to always collect.

    Conservation laws (asserted by :mod:`repro.validate`):

    * every arrival is exactly one of admitted or rejected:
      ``offered == enqueued + (dropped - dropped_after_enqueue)``;
    * admitted packets leave exactly once:
      ``enqueued == dequeued + dropped_after_enqueue + still-queued``;
    * byte-exact variants of both, with ``bytes_trimmed`` carrying the
      payload a trim cut between arrival and admission.

    ``dropped`` / ``bytes_dropped`` remain the *total* loss counters
    (pre-admission tail/selective drops plus post-enqueue flushes);
    ``dropped_after_enqueue`` isolates the flush share so the admission
    ledger and the occupancy ledger each balance exactly.
    """

    __slots__ = (
        "offered", "enqueued", "dequeued", "dropped", "trimmed", "marked",
        "dropped_after_enqueue",
        "bytes_offered", "bytes_enqueued", "bytes_dequeued", "bytes_dropped",
        "bytes_dropped_after_enqueue", "bytes_trimmed",
    )

    def __init__(self) -> None:
        self.offered = 0
        self.enqueued = 0
        self.dequeued = 0
        self.dropped = 0
        self.trimmed = 0
        self.marked = 0
        self.dropped_after_enqueue = 0
        self.bytes_offered = 0
        self.bytes_enqueued = 0
        self.bytes_dequeued = 0
        self.bytes_dropped = 0
        self.bytes_dropped_after_enqueue = 0
        self.bytes_trimmed = 0


class PriorityMux:
    """Eight strict-priority FIFOs over a shared buffer pool.

    Parameters
    ----------
    buffer_bytes:
        Total buffer shared by all priority queues of this port.
    ecn_thresholds:
        Per-priority ECN marking threshold in bytes (None = no marking for
        that priority), compared with the paper's rule (RED with
        min == max == K, Eq. 3): high-priority packets (P0-P3) mark on
        the *high-priority half's* occupancy, so LP bytes never inflate
        DCTCP's congestion signal; low-priority packets (P4-P7) mark on
        the *total* port occupancy, because "all data packets essentially
        share the switch buffer" (§3.2) and the LCP loop must sense both
        normal-blocks-opportunistic and opportunistic-impacts-normal
        situations.
    lp_buffer_cap:
        If set, cap the bytes that low-priority (``lcp=True``) packets may
        occupy (used for the Fig. 24 RC3-variant experiment).
    dt_alpha:
        Broadcom-style dynamic-threshold buffer sharing: a packet is
        dropped when its priority queue already holds more than
        ``alpha * (buffer - occupancy)`` bytes.  May be a single number
        or a per-priority sequence; the default scenario configuration
        uses alpha=8 for the high-priority queues and alpha=1 for the
        lossy low-priority queues, the common commodity setting — a
        greedy opportunistic queue then stabilises at half the free pool
        and can never squeeze out high-priority arrivals.  None = pure
        shared tail drop.
    """

    __slots__ = (
        "buffer_bytes", "ecn_thresholds", "trim",
        "trim_threshold_bytes",
        "selective_drop_threshold", "lp_buffer_cap", "dt_alphas",
        "queues", "occupancy", "queue_occupancy", "lp_occupancy",
        "hp_occupancy", "nonempty_mask", "pkt_count", "pfc",
        "stats", "drop_hook", "mark_hook", "trim_hook",
    )

    def __init__(
        self,
        buffer_bytes: int,
        ecn_thresholds: Optional[List[Optional[int]]] = None,
        *,
        lp_buffer_cap: Optional[int] = None,
        dt_alpha=None,
    ) -> None:
        self.buffer_bytes = buffer_bytes
        if ecn_thresholds is None:
            ecn_thresholds = [None] * NUM_PRIORITIES
        if len(ecn_thresholds) != NUM_PRIORITIES:
            raise ValueError("ecn_thresholds must have 8 entries")
        self.ecn_thresholds = list(ecn_thresholds)
        self.lp_buffer_cap = lp_buffer_cap
        if dt_alpha is None:
            self.dt_alphas: Optional[List[float]] = None
        elif isinstance(dt_alpha, (int, float)):
            self.dt_alphas = [float(dt_alpha)] * NUM_PRIORITIES
        else:
            alphas = [float(a) for a in dt_alpha]
            if len(alphas) != NUM_PRIORITIES:
                raise ValueError("dt_alpha sequence must have 8 entries")
            self.dt_alphas = alphas
        # Off until NDP's / Aeolus's ``configure_network`` sets them.  NDP
        # also trims a data packet once its queue exceeds
        # ``trim_threshold_bytes`` (None = only on buffer exhaustion);
        # trimmed headers use the whole buffer, modelling NDP's separate
        # tiny header queue.
        self.trim = False
        self.trim_threshold_bytes: Optional[int] = None
        self.selective_drop_threshold: Optional[int] = None
        self.queues: List[deque] = [deque() for _ in range(NUM_PRIORITIES)]
        self.occupancy = 0
        self.queue_occupancy = [0] * NUM_PRIORITIES
        self.lp_occupancy = 0
        # Incremental ledgers mirroring derivable state so the hot path
        # never recomputes it: high-priority (P0-3) bytes for the
        # paper's ECN comparison, a bitmask of non-empty queues for
        # O(1) strict-priority dequeue, and the total packet count.
        # All integer arithmetic — exact by construction; audit_mux in
        # repro.validate asserts agreement with the recomputed sums.
        self.hp_occupancy = 0
        self.nonempty_mask = 0
        self.pkt_count = 0
        # Optional PFC lossless-class state (PfcState); None = lossy
        # port, and exactly one attribute test on the hot enqueue path.
        self.pfc: Optional[PfcState] = None
        self.stats = QueueStats()
        # Optional per-event hooks (None = nobody listening, one branch
        # on the hot path).  Attach via add_*_hook, which *chains*
        # callbacks — a second consumer never displaces the first.
        self.drop_hook: Optional[Callable[[Packet], None]] = None
        self.mark_hook: Optional[Callable[[Packet], None]] = None
        self.trim_hook: Optional[Callable[[Packet], None]] = None

    # -- hook wiring ------------------------------------------------------

    def add_drop_hook(self, fn: Callable[[Packet], None]) -> None:
        """Chain ``fn`` onto the drop hook (fired per dropped packet)."""
        self.drop_hook = chain(self.drop_hook, fn)

    def add_mark_hook(self, fn: Callable[[Packet], None]) -> None:
        """Chain ``fn`` onto the ECN-mark hook (fired per CE mark)."""
        self.mark_hook = chain(self.mark_hook, fn)

    def add_trim_hook(self, fn: Callable[[Packet], None]) -> None:
        """Chain ``fn`` onto the trim hook (fired per admitted trim)."""
        self.trim_hook = chain(self.trim_hook, fn)

    # -- enqueue ---------------------------------------------------------

    def enqueue(self, pkt: Packet) -> bool:
        """Admit ``pkt``; returns False when it was dropped.

        A lossy packet passes Aeolus's selective drop, RC3's LP cap,
        NDP's trim, the shared tail drop and the DT threshold.  A
        lossless packet (P0 on a PFC port) never meets them: crossing
        XOFF pauses the upstream senders instead, and ``headroom_bytes``
        beyond the pool absorbs what is already in flight; a drop there
        (headroom too small) is counted apart for the validate layer.
        Both share ECN marking (DCQCN's signal is CE marks on the very
        queues PFC protects) and the ledgers.

        Trimmed packets (NDP) count as admitted — the header survives.
        Accounting invariant: every arrival ends up as exactly one of
        ``enqueued`` or ``dropped`` (a trimmed-then-dropped packet is a
        drop, not a trim), and a dropped packet's ``bytes_dropped``
        reflect its size *on arrival*, before any trim shrank it.
        """
        stats = self.stats
        arrival_size = pkt.size
        occupancy = self.occupancy
        stats.offered += 1
        stats.bytes_offered += arrival_size
        queue_occupancy = self.queue_occupancy
        pfc = self.pfc
        lossless = pfc is not None and pkt.priority == LOSSLESS_PRIORITY
        trimmed = False
        if lossless:
            size = arrival_size
            priority = LOSSLESS_PRIORITY
            if occupancy + size > self.buffer_bytes + pfc.headroom_bytes:
                pfc.lossless_drops += 1
                self._drop(pkt, arrival_size)
                return False
        else:
            # Aeolus selective dropping of pre-credit packets.
            if (
                self.selective_drop_threshold is not None
                and pkt.unscheduled
                and occupancy > self.selective_drop_threshold
            ):
                self._drop(pkt, arrival_size)
                return False

            # RC3 variant: cap buffer available to the low-priority loop.
            if self.lp_buffer_cap is not None and pkt.lcp:
                if self.lp_occupancy + pkt.size > self.lp_buffer_cap:
                    self._drop(pkt, arrival_size)
                    return False

            # NDP trimming: cut the payload as soon as the data queue
            # exceeds the (small) trim threshold; the surviving header is
            # tiny and rides the highest priority.
            if (
                self.trim
                and pkt.kind != HEADER
                and pkt.size > HEADER_BYTES
                and self.trim_threshold_bytes is not None
                and queue_occupancy[pkt.priority] + pkt.size
                > self.trim_threshold_bytes
            ):
                pkt.trim()
                trimmed = True

            size = pkt.size
            priority = pkt.priority
            buffer_bytes = self.buffer_bytes
            # shared tail drop, then per-queue dynamic threshold (DT); the
            # DT product is only evaluated when the cheap shared check
            # passes
            over = occupancy + size > buffer_bytes
            if not over:
                alphas = self.dt_alphas
                over = (
                    alphas is not None
                    and pkt.kind != HEADER
                    and queue_occupancy[priority] + size
                    > alphas[priority] * (buffer_bytes - occupancy)
                )
            if over:
                if self.trim and pkt.kind != HEADER and size > HEADER_BYTES:
                    # buffer exhausted: last-resort trim
                    pkt.trim()
                    trimmed = True
                    size = pkt.size
                    priority = pkt.priority
                    if occupancy + size > buffer_bytes:
                        self._drop(pkt, arrival_size)
                        return False
                else:
                    self._drop(pkt, arrival_size)
                    return False

        # ECN marking on arrival: the paper's rule (class docstring).
        threshold = self.ecn_thresholds[priority]
        if (threshold is not None and pkt.ecn_capable
                and (self.hp_occupancy if priority < 4 else occupancy)
                >= threshold):
            pkt.ecn_ce = True
            stats.marked += 1
            if self.mark_hook is not None:
                self.mark_hook(pkt)

        if trimmed:
            # counted only now that the header actually survived
            stats.trimmed += 1
            stats.bytes_trimmed += arrival_size - size
            if self.trim_hook is not None:
                self.trim_hook(pkt)
        self.queues[priority].append(pkt)
        self.occupancy = occupancy + size
        queue_occupancy[priority] += size
        if priority < 4:
            self.hp_occupancy += size
        if pkt.lcp:
            self.lp_occupancy += size
        self.nonempty_mask |= 1 << priority
        self.pkt_count += 1
        stats.enqueued += 1
        stats.bytes_enqueued += size
        if lossless and not pfc.xoff_state \
                and queue_occupancy[priority] > pfc.xoff_bytes:
            pfc.xoff_state = LOSSLESS_MASK
            if pfc.controller is not None:
                pfc.controller.on_xoff(priority)
        return True

    def pfc_dequeue_check(self, priority: int) -> None:
        """XON when a paused priority drained below the resume mark.

        Called after every dequeue on PFC-enabled muxes only.
        """
        pfc = self.pfc
        if pfc.xoff_state and priority == LOSSLESS_PRIORITY \
                and self.queue_occupancy[priority] <= pfc.xon_bytes:
            pfc.xoff_state = 0
            if pfc.controller is not None:
                pfc.controller.on_xon(priority)

    def _drop(self, pkt: Packet, size: Optional[int] = None) -> None:
        self.stats.dropped += 1
        self.stats.bytes_dropped += pkt.size if size is None else size
        if self.drop_hook is not None:
            self.drop_hook(pkt)

    # -- dequeue ---------------------------------------------------------

    def dequeue(self, paused_mask: int = 0) -> Optional[Packet]:
        """Pop the head of the highest-priority non-empty queue whose bit
        is not set in ``paused_mask`` (the port's PFC-paused priorities:
        they keep their packets and their ``nonempty_mask`` bit)."""
        mask = self.nonempty_mask & ~paused_mask
        if not mask:
            return None
        # lowest set bit == highest priority with packets waiting
        priority = (mask & -mask).bit_length() - 1
        queue = self.queues[priority]
        pkt = queue.popleft()
        if not queue:
            self.nonempty_mask &= ~(1 << priority)
        size = pkt.size
        self.occupancy -= size
        self.queue_occupancy[priority] -= size
        if priority < 4:
            self.hp_occupancy -= size
        if pkt.lcp:
            self.lp_occupancy -= size
        self.pkt_count -= 1
        stats = self.stats
        stats.dequeued += 1
        stats.bytes_dequeued += size
        if self.pfc is not None:
            self.pfc_dequeue_check(priority)
        return pkt

    def flush(self) -> int:
        """Drop every queued packet (link failure); returns the count.

        Flushed packets are accounted as drops, not dequeues — they
        never made it onto the wire.
        """
        flushed = 0
        stats = self.stats
        for priority, queue in enumerate(self.queues):
            while queue:
                pkt = queue.popleft()
                self.occupancy -= pkt.size
                self.queue_occupancy[priority] -= pkt.size
                if priority < 4:
                    self.hp_occupancy -= pkt.size
                if pkt.lcp:
                    self.lp_occupancy -= pkt.size
                self.pkt_count -= 1
                # a flushed packet was admitted (counted enqueued), so it
                # is a *post-enqueue* drop — split out so the admission
                # and occupancy ledgers both balance
                stats.dropped_after_enqueue += 1
                stats.bytes_dropped_after_enqueue += pkt.size
                self._drop(pkt)
                flushed += 1
        self.nonempty_mask = 0
        pfc = self.pfc
        if pfc is not None and pfc.xoff_state:
            # every queue is now empty (<= xon), so the pause lifts
            pfc.xoff_state = 0
            if pfc.controller is not None:
                pfc.controller.on_xon(LOSSLESS_PRIORITY)
        return flushed

    # -- introspection ---------------------------------------------------

    def __len__(self) -> int:
        return self.pkt_count

    @property
    def empty(self) -> bool:
        return self.occupancy == 0

    def occupancy_split(self) -> Dict[str, int]:
        """Bytes held by the high-priority (P0-3) vs low-priority (P4-7) half."""
        return {"high": self.hp_occupancy,
                "low": self.occupancy - self.hp_occupancy}
