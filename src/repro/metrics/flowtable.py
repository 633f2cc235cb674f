"""The per-flow record of a finished run: one row per pulled flow.

:meth:`FlowTable.harvest` reads the flows, the :class:`SenderLedger` of
the senders the run retired, and every endpoint still registered at the
hosts once (an endpoint registered twice counts once), so the run's
per-flow totals are column sums: ``RunHealth``'s and the telemetry
rollup's retransmits and RTOs, and Fig. 29's transfer efficiency
(appendix F: received over sent data packets, overall and for the
low-priority loop, where RC3 loses about half its packets).  Endpoints
are duck-typed: a sender exposes ``pkts_transmitted`` (and
``pkts_retransmitted``, optionally ``rtos_fired``, ``acks_received``
and a second loop ``lcp``), a receiver ``data_pkts_received``
(optionally ``lp_pkts_received``).

Columns are stdlib ``array``\\ s — compact, picklable across a
``run_grid`` pipe, and untracked by the GC, which the harvest runs
right after re-enabling.  An unfinished flow's FCT is
:data:`UNFINISHED`, not NaN, so two bit-identical runs' tables compare
equal.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional

if TYPE_CHECKING:
    from ..transport.base import Flow

UNFINISHED = float("inf")

#: the table's columns a sender fills, in :func:`sender_counts` order
SENDER_COLUMNS = ("pkts_sent", "retransmits", "rtos", "lp_pkts_sent",
                  "acks", "lp_loops")


def sender_counts(sender) -> tuple:
    """One sender's :data:`SENDER_COLUMNS`."""
    lcp = getattr(sender, "lcp", None)
    return (sender.pkts_transmitted, sender.pkts_retransmitted,
            getattr(sender, "rtos_fired", 0),
            0 if lcp is None else lcp.lp_pkts_sent,
            getattr(sender, "acks_received", 0),
            0 if lcp is None else lcp.loops_opened)


class SenderLedger:
    """The counters of the senders a run has retired
    (:meth:`~repro.transport.base.TransportContext.retire`), one row
    each in retirement order: what :meth:`FlowTable.harvest` would have
    read off the sender, kept in ``array`` columns (about 56 bytes a
    row) so the sender itself can go."""

    __slots__ = ("flow_id",) + SENDER_COLUMNS

    def __init__(self) -> None:
        for name in self.__slots__:
            setattr(self, name, array("q"))

    def __len__(self) -> int:
        return len(self.flow_id)

    def record(self, flow_id: int, sender) -> None:
        self.flow_id.append(flow_id)
        for name, value in zip(SENDER_COLUMNS, sender_counts(sender)):
            getattr(self, name).append(value)

    def rows(self):
        """``(flow_id, counts)`` per retired sender."""
        return zip(self.flow_id,
                   zip(*(getattr(self, name) for name in SENDER_COLUMNS)))


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

    def __len__(self) -> int:
        return len(self.flow_id)

    @classmethod
    def harvest(cls, flows: Iterable[Flow], network,
                retired: Optional[SenderLedger] = None) -> "FlowTable":
        flow_ids, sizes, fcts = array("q"), array("q"), array("d")
        row = {}
        for flow in flows:
            row[flow.flow_id] = len(flow_ids)
            flow_ids.append(flow.flow_id)
            sizes.append(flow.size)
            fct = flow.fct
            fcts.append(UNFINISHED if fct is None else fct)
        zeros = bytes(flow_ids.itemsize * len(flow_ids))
        # the eight counter columns start at zero
        table = cls(flow_ids, sizes, fcts,
                    *(array("q", zeros) for _ in range(8)))
        columns = [getattr(table, name) for name in SENDER_COLUMNS]

        def add_sender(i: int, counts: tuple) -> None:
            for column, value in zip(columns, counts):
                column[i] += value

        if retired is not None:
            for flow_id, counts in retired.rows():
                i = row.get(flow_id)
                if i is not None:
                    add_sender(i, counts)
        seen = set()
        for host in network.hosts.values():
            for flow_id, endpoint in host.endpoints.items():
                if id(endpoint) in seen:
                    continue
                seen.add(id(endpoint))
                i = row.get(flow_id)
                if i is None:
                    continue
                if getattr(endpoint, "pkts_transmitted", None) is not None:
                    add_sender(i, sender_counts(endpoint))
                received = getattr(endpoint, "data_pkts_received", None)
                if received is not None:
                    table.pkts_received[i] += received
                    table.lp_pkts_received[i] += getattr(
                        endpoint, "lp_pkts_received", 0)
        return table

    def efficiency(self, lp: bool = False) -> float:
        """Received over sent data packets (NaN when none were sent);
        ``lp`` counts the low-priority loop's alone."""
        sent = sum(self.lp_pkts_sent if lp else self.pkts_sent)
        if sent == 0:
            return float("nan")
        return sum(self.lp_pkts_received if lp else self.pkts_received) / sent
