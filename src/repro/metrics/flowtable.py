"""The per-flow record of a run: one row per pulled flow, written once.

The run's table lives on its transport context (``ctx.table``).  The
runner adds a row for every flow it pulls (:meth:`FlowTable.add`, which
gives the flow its ``row``); an endpoint retired mid-run writes its
counters straight into that row — a sender at
:meth:`~repro.transport.base.TransportContext.retire`
(:meth:`FlowTable.add_sender`), a receiver at
:meth:`~repro.transport.base.TransportContext.retire_receiver`
(:meth:`FlowTable.add_receiver`); and at drain end
:meth:`FlowTable.harvest` walks the flows once, filling each row's FCT
and the counters of the endpoints still registered under the flow's id
at its source and destination hosts.  So the run's per-flow
totals are column sums: ``RunHealth``'s and the telemetry rollup's
retransmits and RTOs, and Fig. 29's transfer efficiency (appendix F:
received over sent data packets, overall and for the low-priority loop,
where RC3 loses about half its packets).  Endpoints are duck-typed: a
sender exposes ``pkts_transmitted`` (and ``pkts_retransmitted``,
optionally ``rtos_fired``, ``acks_received`` and a second loop
``lcp``), a receiver ``data_pkts_received`` (optionally
``lp_pkts_received``, ``dup_pkts_received``, the data packets it
already had, and ``lp_dup_pkts_received``, those of them that came on
the low-priority loop; the message-core receivers count none, so their
flows read 0).

Columns are stdlib ``array``\\ s — compact, picklable across a
``run_grid`` pipe, and untracked by the GC.  An unfinished flow's FCT
is :data:`UNFINISHED`, not NaN, so two bit-identical runs' tables
compare equal.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:
    from ..transport.base import Flow

UNFINISHED = float("inf")

#: the table's columns a sender fills, in :func:`sender_counts` order
SENDER_COLUMNS = ("pkts_sent", "retransmits", "rtos", "lp_pkts_sent",
                  "acks", "lp_loops")
#: the ten columns that start at zero: the sender's, then the receiver's
COUNTER_COLUMNS = SENDER_COLUMNS + ("pkts_received", "lp_pkts_received",
                                    "dup_pkts_received",
                                    "lp_dup_pkts_received")


def sender_counts(sender) -> tuple:
    """One sender's :data:`SENDER_COLUMNS`."""
    lcp = getattr(sender, "lcp", None)
    return (sender.pkts_transmitted, sender.pkts_retransmitted,
            getattr(sender, "rtos_fired", 0),
            0 if lcp is None else lcp.lp_pkts_sent,
            getattr(sender, "acks_received", 0),
            0 if lcp is None else lcp.loops_opened)


@dataclass
class FlowTable:
    flow_id: array
    size: array
    fct: array
    retransmits: array
    rtos: array
    pkts_sent: array
    lp_pkts_sent: array
    pkts_received: array
    lp_pkts_received: array
    acks: array
    lp_loops: array
    dup_pkts_received: array
    lp_dup_pkts_received: array

    def __len__(self) -> int:
        return len(self.flow_id)

    @classmethod
    def empty(cls) -> "FlowTable":
        return cls(array("q"), array("q"), array("d"),
                   *(array("q") for _ in range(10)))

    def add(self, flow: Flow) -> None:
        """A zeroed, unfinished row for a pulled flow, whose index the
        flow keeps as ``flow.row``."""
        flow.row = len(self.flow_id)
        self.flow_id.append(flow.flow_id)
        self.size.append(flow.size)
        self.fct.append(UNFINISHED)
        for name in COUNTER_COLUMNS:
            getattr(self, name).append(0)

    def add_sender(self, row: int, sender) -> None:
        """Add one sender's :data:`SENDER_COLUMNS` to ``row``."""
        for name, value in zip(SENDER_COLUMNS, sender_counts(sender)):
            getattr(self, name)[row] += value

    def harvest(self, flows: Iterable[Flow], network) -> None:
        """Fill the rows of ``flows`` at drain end, once per table: a
        second call would add the live endpoints' counters again.  Each
        finished flow's row (``flow.row``) gets its FCT, and each adds
        the counters of the endpoints still registered under its id at
        its source and destination hosts (one host when they are the
        same): the ends that never retired — an unfinished flow's, a
        receiver whose flow lost a packet, the message-core endpoints."""
        fcts = self.fct
        hosts = network.hosts
        for flow in flows:
            row = flow.row
            fct = flow.fct
            if fct is not None:
                fcts[row] = fct
            flow_id = flow.flow_id
            endpoint = hosts[flow.src].endpoints.get(flow_id)
            if endpoint is not None:
                self._read(row, endpoint)
            if flow.dst != flow.src:
                endpoint = hosts[flow.dst].endpoints.get(flow_id)
                if endpoint is not None:
                    self._read(row, endpoint)

    def add_receiver(self, row: int, receiver) -> None:
        """Add one receiver's four columns to ``row``."""
        self.pkts_received[row] += receiver.data_pkts_received
        self.lp_pkts_received[row] += getattr(receiver, "lp_pkts_received", 0)
        self.dup_pkts_received[row] += getattr(
            receiver, "dup_pkts_received", 0)
        self.lp_dup_pkts_received[row] += getattr(
            receiver, "lp_dup_pkts_received", 0)

    def _read(self, row: int, endpoint) -> None:
        if getattr(endpoint, "pkts_transmitted", None) is not None:
            self.add_sender(row, endpoint)
        if getattr(endpoint, "data_pkts_received", None) is not None:
            self.add_receiver(row, endpoint)

    def efficiency(self, lp: bool = False) -> float:
        """Received over sent data packets (NaN when none were sent);
        ``lp`` counts the low-priority loop's alone."""
        sent = sum(self.lp_pkts_sent if lp else self.pkts_sent)
        if sent == 0:
            return float("nan")
        return sum(self.lp_pkts_received if lp else self.pkts_received) / sent
