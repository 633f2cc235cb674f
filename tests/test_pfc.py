"""Lossless Ethernet (PFC) tests: hysteresis, zero-drop, storms,
pickling, and the end-to-end lossless scenarios."""

import math
import pickle

from repro.experiments.runner import run
from repro.experiments.scenarios import (
    SIM_PFC,
    all_to_all_scenario,
    lossless_scenario,
    pfc_storm_scenario,
)
from repro.sim.packet import Packet
from repro.sim.queues import LOSSLESS_MASK, PfcConfig, PriorityMux
from repro.transport.dcqcn import Dcqcn
from repro.transport.dctcp import Dctcp
from repro.validate.auditor import audit_mux
from repro.workloads.distributions import WEB_SEARCH


class _StubController:
    """Records XOFF/XON callbacks the way PfcController would."""

    def __init__(self):
        self.events = []

    def on_xoff(self, priority):
        self.events.append(("xoff", priority))

    def on_xon(self, priority):
        self.events.append(("xon", priority))


def _lossless_mux(xoff=6000, xon=3000, headroom=20_000, buffer_bytes=9000):
    mux = PriorityMux(buffer_bytes=buffer_bytes)
    cfg = PfcConfig(xoff_bytes=xoff, xon_bytes=xon,
                    headroom_bytes=headroom)
    mux.pfc = cfg.make_state()
    return mux


def _pkt(seq, size=1500, priority=0):
    return Packet(1, src=0, dst=1, seq=seq, size=size, priority=priority)


# ---------------------------------------------------------------------------
# PfcConfig validation
# ---------------------------------------------------------------------------


def test_pfc_config_validates():
    for bad in (dict(xoff_bytes=-1, xon_bytes=0, headroom_bytes=0),
                dict(xoff_bytes=100, xon_bytes=200, headroom_bytes=0),
                dict(xoff_bytes=100, xon_bytes=50, headroom_bytes=-1)):
        try:
            PfcConfig(**bad)
        except ValueError:
            pass
        else:
            raise AssertionError(f"PfcConfig{bad} must raise")


# ---------------------------------------------------------------------------
# mux-level XOFF/XON hysteresis
# ---------------------------------------------------------------------------


def test_xoff_fires_above_threshold_and_xon_below():
    mux = _lossless_mux()
    ctrl = _StubController()
    mux.pfc.controller = ctrl

    for seq in range(4):  # 6000 bytes enqueued: at, not above, XOFF
        assert mux.enqueue(_pkt(seq))
    assert ctrl.events == []
    assert mux.enqueue(_pkt(4))  # 7500 > 6000: XOFF
    assert ctrl.events == [("xoff", 0)]
    assert mux.pfc.xoff_state == LOSSLESS_MASK == 0b1
    assert not audit_mux(mux)

    # draining to 4500 (> xon 3000) must NOT resume yet — hysteresis
    mux.dequeue()
    mux.dequeue()
    assert ctrl.events == [("xoff", 0)]
    # 3000 <= xon: resume
    mux.dequeue()
    assert ctrl.events == [("xoff", 0), ("xon", 0)]
    assert mux.pfc.xoff_state == 0
    assert not audit_mux(mux)


def test_lossless_class_uses_headroom_never_drops():
    mux = _lossless_mux(buffer_bytes=9000, headroom=6000)
    accepted = 0
    for seq in range(10):  # 15000 bytes offered into 9000+6000
        if mux.enqueue(_pkt(seq)):
            accepted += 1
    assert accepted == 10
    assert mux.pfc.lossless_drops == 0
    assert mux.occupancy == 15_000  # beyond the shared buffer: headroom
    assert not audit_mux(mux)
    # headroom exhausted: the drop is counted as a lossless violation
    assert not mux.enqueue(_pkt(99))
    assert mux.pfc.lossless_drops == 1
    assert [law for law, _, _ in audit_mux(mux)] == ["pfc-lossless-drop"]


def test_lossy_priority_unaffected_by_pfc():
    mux = _lossless_mux(buffer_bytes=9000, headroom=50_000)
    for seq in range(6):
        assert mux.enqueue(_pkt(seq, priority=4))
    # priority 4 is not in the lossless set: normal tail-drop at 9000
    assert not mux.enqueue(_pkt(6, priority=4))
    assert mux.pfc.lossless_drops == 0
    assert not audit_mux(mux)


def test_flush_clears_xoff_state():
    mux = _lossless_mux()
    ctrl = _StubController()
    mux.pfc.controller = ctrl
    for seq in range(5):
        mux.enqueue(_pkt(seq))
    assert mux.pfc.xoff_state == 0b1
    mux.flush()
    assert mux.pfc.xoff_state == 0
    assert ctrl.events == [("xoff", 0), ("xon", 0)]
    assert not audit_mux(mux)


# ---------------------------------------------------------------------------
# end-to-end lossless runs
# ---------------------------------------------------------------------------


def _lossless_counters(network):
    drops = sum(p.mux.pfc.lossless_drops for p in network.ports
                if p.mux.pfc is not None)
    pauses = sum(p.pauses_received for p in network.ports)
    return drops, pauses


def test_dcqcn_lossless_incast_zero_drops_pauses_fire():
    scenario = lossless_scenario("pfc-test", n_flows=80, load=0.9,
                                 max_time=10.0, seed=11)
    result = run(Dcqcn(), scenario, validate=True)
    assert result.validation.ok, result.validation.describe()
    drops, pauses = _lossless_counters(result.topology.network)
    assert drops == 0, "a lossless class dropped"
    assert pauses > 0, "the incast never tripped XOFF — not a PFC test"
    assert result.completed == len(result.flows)


def test_pfc_storm_hol_blocks_then_recovers():
    scenario = pfc_storm_scenario("storm-test", n_flows=40, max_time=10.0)
    result = run(Dcqcn(), scenario, validate=True)
    assert result.validation.ok, result.validation.describe()
    drops, pauses = _lossless_counters(result.topology.network)
    assert drops == 0
    assert pauses > 0
    # the storm window closes, so every flow still completes
    assert result.completed == len(result.flows)
    assert not result.health.stalled


def test_flowlet_infinite_gap_run_bit_identical_to_ecmp():
    """A flowlet balancer that never re-pins must reproduce the default
    per-flow-ECMP run exactly: same FCT stats, same event count."""
    base = run(Dctcp(), all_to_all_scenario(
        "ecmp-base", WEB_SEARCH, n_flows=40, max_time=5.0))
    flowlet = run(Dctcp(), all_to_all_scenario(
        "flowlet-inf", WEB_SEARCH, n_flows=40, max_time=5.0,
        lb="flowlet", lb_gap=math.inf))
    assert base.stats == flowlet.stats
    assert base.wall_events == flowlet.wall_events


def test_pfc_network_pickle_round_trip():
    """Checkpointing must survive PFC state: pause masks, refs and the
    controller graph all pickle (the live-run contract for --checkpoint)."""
    scenario = lossless_scenario("pfc-pickle", n_flows=30, load=0.9,
                                 max_time=5.0)
    result = run(Dcqcn(), scenario)
    network = result.topology.network
    assert network.pfc_controllers, "lossless scenario must wire PFC"
    blob = pickle.dumps(network)
    clone = pickle.loads(blob)
    assert len(clone.pfc_controllers) == len(network.pfc_controllers)
    for orig, copy in zip(network.ports, clone.ports):
        assert orig.paused_mask == copy.paused_mask
        assert orig.pauses_received == copy.pauses_received
        if orig.mux.pfc is not None:
            assert copy.mux.pfc is not None
            assert orig.mux.pfc.xoff_state == copy.mux.pfc.xoff_state


def test_sim_pfc_constant_is_sane():
    assert SIM_PFC.xon_bytes < SIM_PFC.xoff_bytes
    assert SIM_PFC.headroom_bytes >= SIM_PFC.xoff_bytes
