"""Core DES engine throughput — the repo's events/sec trajectory.

Not a paper figure: this is the perf baseline every hot-path change is
judged against (ROADMAP: "as fast as the hardware allows").  Probes:

* ``raw-heap`` — interleaved self-rescheduling timer chains, nothing but
  ``schedule``/``run``: the heap push/pop ceiling of the engine itself;
* ``dctcp-incast`` — a 16:1 DCTCP incast through the full datapath
  (ports, priority mux, switch, transport, ACK clocking): the number
  that actually bounds experiment wall time.  Reported best-of-N to
  damp scheduler noise, with the run's peak heap size (``sim.pending``
  high-water mark) — the pipelined wire keeps this flat where the
  legacy one-event-per-packet model scaled it with in-flight packets;
* ``leaf-spine`` — all-to-all over a 2x2 leaf-spine: multipath ECMP
  forwarding with two switch hops per path, the topology shape the
  validation matrix leans on;
* ``homa-incast`` — a 31:1 Homa incast, the receiver-driven message
  core (grants through the cached per-pair ``ControlPipe.send``,
  per-priority mux, sender timeouts re-armed on every grant).  Its
  ``peak_pending`` is the live working set: re-armed
  timeouts leave no corpses in the heap (it ran to thousands before
  the engine bounded them);
* ``dctcp-incast-observed`` — the incast with repro.obs telemetry
  attached; comparing against ``dctcp-incast`` across commits bounds
  the observation overhead (regression budget: <3%);
* ``hybrid-soak`` — a heavy bulk-transfer scenario run twice, packet
  mode then with the :mod:`repro.sim.hybrid` fast path; records
  simulated flow-hours per wall-second for both and asserts the hybrid
  speedup is at least 10x (the ISSUE's floor; the ratchet then gates
  ``flow_hours_per_sec`` against the checked-in baseline).

Every invocation writes the rows to ``BENCH_core_engine.json`` at the
repo root (override with ``BENCH_CORE_ENGINE_OUT``) so the trajectory
accumulates in version control / CI artifacts.  The in-test assertion
is deliberately loose (events/sec > 0) because wall-clock varies across
machines; the regression gate lives in ``benchmarks/perf_ratchet.py``,
which CI runs against the checked-in baseline with a 25% noise
allowance.
"""

import json
import os
import time
from pathlib import Path

from conftest import run_figure
from repro.experiments.runner import Scenario, run
from repro.experiments.scenarios import (
    HOMA_RTT_BYTES_SIM,
    all_to_all_scenario,
    incast_scenario,
    sim_config,
    sim_fabric,
    star_fabric,
)
from repro.sim.engine import Simulator
from repro.sim.hybrid import HybridConfig
from repro.transport.base import Flow
from repro.transport.dctcp import Dctcp
from repro.transport.homa import Homa
from repro.units import gbps
from repro.workloads.distributions import WEB_SEARCH

RAW_EVENTS = 200_000
RAW_CHAINS = 8
INCAST_REPEATS = 3
HYBRID_BULK_FLOWS = 24
HYBRID_BULK_SIZE = 4_000_000
HYBRID_SPEEDUP_FLOOR = 10.0

OUT_PATH = Path(os.environ.get(
    "BENCH_CORE_ENGINE_OUT",
    Path(__file__).resolve().parent.parent / "BENCH_core_engine.json"))


def _raw_heap_row():
    sim = Simulator()

    def tick(depth):
        if depth:
            sim.schedule(1e-6, tick, depth - 1)

    for _ in range(RAW_CHAINS):
        sim.schedule(0.0, tick, RAW_EVENTS // RAW_CHAINS)
    t0 = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - t0
    return {"bench": "raw-heap", "events": sim.events_run,
            "seconds": elapsed, "events_per_sec": sim.events_run / elapsed,
            "peak_pending": sim.peak_pending}


def _bench_scenario():
    return incast_scenario(
        "bench-core-incast", WEB_SEARCH, n_senders=16, load=0.6,
        n_flows=64, size_cap=500_000, seed=3)


def _incast_row():
    best = None
    for _ in range(INCAST_REPEATS):
        scenario = _bench_scenario()
        t0 = time.perf_counter()
        result = run(Dctcp(), scenario)
        elapsed = time.perf_counter() - t0
        assert result.completed == len(result.flows), "incast must complete"
        if best is None or elapsed < best[0]:
            best = (elapsed, result)
    elapsed, result = best
    return {"bench": "dctcp-incast", "events": result.wall_events,
            "seconds": elapsed,
            "events_per_sec": result.wall_events / elapsed,
            "peak_pending": result.health.peak_pending}


def _leaf_spine_row():
    scenario = all_to_all_scenario(
        "bench-core-leaf-spine", WEB_SEARCH, n_flows=48,
        fabric=sim_fabric(n_leaf=2, n_spine=2, hosts_per_leaf=4), seed=5)
    t0 = time.perf_counter()
    result = run(Dctcp(), scenario)
    elapsed = time.perf_counter() - t0
    assert result.completed == len(result.flows), "leaf-spine must complete"
    return {"bench": "leaf-spine", "events": result.wall_events,
            "seconds": elapsed,
            "events_per_sec": result.wall_events / elapsed,
            "peak_pending": result.health.peak_pending}


def _homa_incast_row():
    best = None
    for _ in range(INCAST_REPEATS):
        scenario = incast_scenario(
            "bench-core-homa-incast", WEB_SEARCH, n_senders=31, load=0.6,
            n_flows=100, seed=11)
        t0 = time.perf_counter()
        result = run(Homa(rtt_bytes=HOMA_RTT_BYTES_SIM), scenario)
        elapsed = time.perf_counter() - t0
        assert result.completed == len(result.flows), "incast must complete"
        if best is None or elapsed < best[0]:
            best = (elapsed, result)
    elapsed, result = best
    return {"bench": "homa-incast", "events": result.wall_events,
            "seconds": elapsed,
            "events_per_sec": result.wall_events / elapsed,
            "peak_pending": result.health.peak_pending}


def _observed_incast_row():
    result = run(Dctcp(), _bench_scenario(), observe=True)
    assert result.completed == len(result.flows), "incast must complete"
    summary = result.telemetry.summary()
    return {"bench": "dctcp-incast-observed", "events": summary.sim_events,
            "seconds": summary.wall_seconds,
            "events_per_sec": summary.events_per_sec,
            "peak_pending": result.health.peak_pending}


def _hybrid_scenario(hybrid):
    """Heavy bulk traffic on a slow star: every flow is a multi-second
    transfer, which is exactly the event population the flow-level fast
    path exists to elide."""
    fabric = star_fabric(6, rate=gbps(0.1))

    def build_flows(topo):
        hosts = topo.host_ids()
        n = len(hosts)
        flows = []
        for i in range(HYBRID_BULK_FLOWS):
            src = hosts[i % n]
            dst = hosts[(i + 1 + i // n) % n]
            flows.append(Flow(flow_id=i, src=src, dst=dst,
                              size=HYBRID_BULK_SIZE,
                              start_time=0.001 * i))
        return flows

    # slow links: scale RTOmin past serialization like the soak scenario
    return Scenario("bench-hybrid-soak", fabric, build_flows,
                    config=sim_config(min_rto=0.05), max_time=120.0,
                    hybrid=hybrid)


def _flow_hours(result):
    return sum(f.fct for f in result.flows if f.fct is not None) / 3600.0


def _hybrid_row():
    t0 = time.perf_counter()
    packet = run(Dctcp(), _hybrid_scenario(None))
    packet_wall = time.perf_counter() - t0
    assert packet.completed == len(packet.flows), "packet soak must complete"

    t0 = time.perf_counter()
    hybrid = run(Dctcp(), _hybrid_scenario(HybridConfig()))
    hybrid_wall = time.perf_counter() - t0
    assert hybrid.completed == len(hybrid.flows), "hybrid soak must complete"

    packet_fhps = _flow_hours(packet) / packet_wall
    hybrid_fhps = _flow_hours(hybrid) / hybrid_wall
    speedup = hybrid_fhps / packet_fhps if packet_fhps else float("inf")
    return {"bench": "hybrid-soak", "events": hybrid.wall_events,
            "seconds": hybrid_wall,
            "events_per_sec": hybrid.wall_events / hybrid_wall,
            "peak_pending": hybrid.health.peak_pending,
            "flow_hours_per_sec": hybrid_fhps,
            "packet_flow_hours_per_sec": packet_fhps,
            "speedup": speedup}


def _run_bench():
    rows = [_raw_heap_row(), _incast_row(), _leaf_spine_row(),
            _homa_incast_row(), _observed_incast_row(), _hybrid_row()]
    payload = {"bench": "core_engine", "rows": rows}
    OUT_PATH.parent.mkdir(parents=True, exist_ok=True)
    OUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def test_core_engine_events_per_sec(benchmark):
    result = run_figure(benchmark, "Core engine throughput (events/sec)",
                        _run_bench)
    for row in result["rows"]:
        assert row["events"] > 0
        assert row["events_per_sec"] > 0
        if row["bench"] == "hybrid-soak":
            assert row["speedup"] >= HYBRID_SPEEDUP_FLOOR, (
                f"hybrid fast path delivered only {row['speedup']:.1f}x "
                f"simulated flow-hours per wall-second over packet mode "
                f"(floor {HYBRID_SPEEDUP_FLOOR:g}x)")
    assert OUT_PATH.exists()
