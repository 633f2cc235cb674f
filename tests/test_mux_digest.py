"""Pinned per-operation outcomes of the priority mux.

Five mux setups — a lossy port with DT thresholds, a PFC port small
enough to pause, resume and drop a lossless packet, an NDP trimming
port, an Aeolus selective-drop port and an RC3 port with an LP cap —
each run a seeded random sequence of enqueues and dequeues.  Every op's
outcome (return value, CE mark, size/priority/kind after any trim, the
XOFF/XON edges a recording controller saw) and each mux's final stats
and ledgers are folded into one sha256.  A change to the admission path
must reproduce it exactly; a deliberate behaviour change re-records it.

The muxes are built the way the simulator builds them:
``QueueConfig(...).build`` plus the attribute assignments
``Network.enable_pfc`` and NDP's and Aeolus's ``configure_network``
make.
"""

import hashlib
import random

from repro.sim.network import QueueConfig
from repro.sim.packet import DATA, HEADER_BYTES, Packet
from repro.sim.queues import PfcConfig, QueueStats
from repro.units import gbps

RATE = gbps(40)
OPS_PER_SETUP = 4_000
THRESHOLDS = [6_000] * 4 + [9_000] * 4

MUX_DIGEST = "9b52890502f443cca9596302e246d102147a15ba2b936edbaf7cf0060c622e63"


class _Edges:
    """PFC controller stand-in: records every XOFF/XON edge."""

    def __init__(self):
        self.seen = []      # edges since the last op
        self.kinds = set()  # every edge kind ever seen

    def on_xoff(self, priority):
        self.seen.append(("xoff", priority))
        self.kinds.add("xoff")

    def on_xon(self, priority):
        self.seen.append(("xon", priority))
        self.kinds.add("xon")


def _setups():
    lossy = QueueConfig(buffer_bytes=30_000,
                        ecn_thresholds=THRESHOLDS).build(RATE)

    pfc = QueueConfig(buffer_bytes=12_000,
                      ecn_thresholds=THRESHOLDS).build(RATE)
    pfc.pfc = PfcConfig(xoff_bytes=4_000, xon_bytes=2_000,
                        headroom_bytes=3_000).make_state()
    pfc.pfc.controller = _Edges()

    ndp = QueueConfig(buffer_bytes=20_000, ecn_thresholds=THRESHOLDS,
                      dt_alpha=None).build(RATE)
    ndp.trim = True
    ndp.trim_threshold_bytes = 3 * 1500

    aeolus = QueueConfig(buffer_bytes=20_000, ecn_thresholds=THRESHOLDS,
                         dt_alpha=None).build(RATE)
    aeolus.selective_drop_threshold = aeolus.buffer_bytes // 4

    rc3 = QueueConfig(buffer_bytes=30_000, ecn_thresholds=THRESHOLDS,
                      lp_buffer_cap=6_000).build(RATE)
    return [("lossy", lossy, 0.6), ("pfc", pfc, 0.7), ("ndp", ndp, 0.65),
            ("aeolus", aeolus, 0.65), ("rc3", rc3, 0.65)]


def _packet(rng, seq):
    size = 1500 if rng.random() < 0.6 else rng.randint(HEADER_BYTES, 1500)
    priority = rng.randrange(8)
    pkt = Packet(flow_id=rng.randrange(4), src=0, dst=1, seq=seq, size=size,
                 kind=DATA, priority=priority,
                 ecn_capable=rng.random() < 0.9)
    pkt.lcp = priority >= 4 and rng.random() < 0.7
    pkt.unscheduled = rng.random() < 0.4
    return pkt


def _ledgers(mux):
    pfc = mux.pfc
    return (mux.occupancy, tuple(mux.queue_occupancy), mux.lp_occupancy,
            mux.hp_occupancy, mux.nonempty_mask, mux.pkt_count,
            None if pfc is None else (pfc.xoff_state, pfc.lossless_drops))


def _stats(mux):
    return tuple(getattr(mux.stats, name) for name in QueueStats.__slots__)


def _outcomes(name, mux, p_enqueue):
    rng = random.Random(f"mux-digest:{name}")
    controller = mux.pfc.controller if mux.pfc is not None else None
    out = [name]
    for seq in range(OPS_PER_SETUP):
        if rng.random() < p_enqueue:
            pkt = _packet(rng, seq)
            admitted = mux.enqueue(pkt)
            op = ("e", admitted, pkt.ecn_ce, pkt.size, pkt.priority,
                  pkt.kind)
        else:
            pkt = mux.dequeue()
            op = ("d", None if pkt is None else (pkt.flow_id, pkt.seq))
        if controller is not None and controller.seen:
            op += (tuple(controller.seen),)
            controller.seen.clear()
        out.append(op)
    out.append(_ledgers(mux))
    out.append(("flush", mux.flush(),
                tuple(controller.seen) if controller is not None else ()))
    out.append(_ledgers(mux))
    out.append(_stats(mux))
    return out


def test_every_setup_reaches_its_feature():
    """The digest pins only what the sequences exercise: every port
    marks, drops and dequeues, NDP trims, and the PFC port pauses,
    resumes and drops a lossless packet (its headroom is too small)."""
    muxes = {}
    for name, mux, p_enqueue in _setups():
        _outcomes(name, mux, p_enqueue)
        muxes[name] = mux
        assert mux.stats.marked and mux.stats.dropped and mux.stats.dequeued
    assert muxes["ndp"].stats.trimmed > 0
    pfc = muxes["pfc"].pfc
    assert pfc.lossless_drops > 0
    assert pfc.controller.kinds == {"xoff", "xon"}


def test_mux_outcomes_are_pinned():
    record = [_outcomes(name, mux, p_enqueue)
              for name, mux, p_enqueue in _setups()]
    digest = hashlib.sha256(repr(record).encode()).hexdigest()
    assert digest == MUX_DIGEST
