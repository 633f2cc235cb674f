"""Aeolus [Hu et al., SIGCOMM 2020] — a pre-credit building block for
proactive transports, evaluated integrated with Homa (as in the paper).

Differences from plain Homa, per the Aeolus design:

* First-RTT unscheduled packets are tagged ``unscheduled`` and the fabric
  performs **selective dropping**: once a port's occupancy exceeds a small
  threshold, arriving unscheduled packets are dropped outright instead of
  queued, so pre-credit blasts can never delay scheduled traffic.
* Dropped unscheduled packets are recovered *in the scheduled phase*: the
  receiver's grant machinery (inherited from Homa) re-requests the holes,
  so the per-packet timeout cost of a first-RTT loss is avoided — but the
  blasted bandwidth itself is wasted, which is why the PPT paper finds
  Aeolus degrades small flows under all-small workloads (Fig. 21).
"""

from __future__ import annotations

from ..sim.network import Network
from ..sim.packet import CONTROL, HEADER_BYTES, Packet
from .homa import Homa, HomaSender


class AeolusSender(HomaSender):
    """Homa sender whose unscheduled packets are selectively droppable.

    After the pre-credit blast the sender probes the receiver one RTT
    later, so that holes punched by selective dropping are re-requested
    through the scheduled (granted) path instead of waiting for the
    timeout — Aeolus's cheap first-RTT loss recovery.
    """

    def send_data(self, seq, priority, retransmit=False, unscheduled=False):
        # Aeolus de-prioritises pre-credit packets: they ride the lowest
        # priority and carry the droppable flag.
        if unscheduled:
            priority = 7
        super().send_data(seq, priority, retransmit, unscheduled)

    MAX_PROBES = 8

    def start(self) -> None:
        super().start()
        self._probes_sent = 0
        rtt = self.ctx.network.base_rtt(self.flow.src, self.flow.dst)
        self.sim.schedule(rtt, self._send_probe)

    def _send_probe(self) -> None:
        if self.finished or self._probes_sent >= self.MAX_PROBES:
            return
        flow = self.flow
        probe = Packet(flow.flow_id, flow.src, flow.dst,
                       self.next_seq, HEADER_BYTES, kind=CONTROL, priority=0)
        # at most MAX_PROBES per flow: not worth caching the sender
        self.ctx.network.control_sender(flow.src, flow.dst)(probe)
        self._probes_sent += 1
        rtt = self.ctx.network.base_rtt(flow.src, flow.dst)
        self.sim.schedule(rtt, self._send_probe)


class Aeolus(Homa):
    name = "aeolus"
    sender_cls = AeolusSender
    grant_resend = True

    def configure_network(self, network: Network) -> None:
        super().configure_network(network)  # uniform DT (see Homa)
        for port in network.ports:
            # drop unscheduled once the port holds more than a quarter
            # of its buffer
            port.mux.selective_drop_threshold = port.mux.buffer_bytes // 4
