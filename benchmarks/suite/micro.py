"""Micro rows: one layer at a time, through public constructors only.

Each row repeats a fixed batch for ``MIN_SECONDS`` and reports timed
seconds over operations.  Values are raw host time (not
calibration-scaled): per-layer diagnostics without a regression bound.
"""

from __future__ import annotations

import dataclasses
import os
import time
from collections import deque
from typing import Callable, Dict, Tuple

from repro.experiments.runner import run
from repro.experiments.scenarios import sim_fabric, sim_qcfg
from repro.resilience.checkpoint import load_checkpoint, save_checkpoint
from repro.sim.engine import Simulator
from repro.sim.link import Port
from repro.sim.packet import Packet
from repro.units import gbps, us

from workloads import WORKLOADS, memcached_stream_scenario

MIN_SECONDS = 1.0
STREAM_FLOWS = 200_000


def _repeat(batch: Callable[[], Tuple[float, int]]) -> float:
    """Timed seconds per operation over >= MIN_SECONDS of batches; each
    batch returns ``(timed_seconds, operations)`` and may do untimed
    work of its own (draining queues) that counts towards the second."""
    seconds, ops = 0.0, 0
    deadline = time.perf_counter() + MIN_SECONDS
    while time.perf_counter() < deadline:
        s, n = batch()
        seconds += s
        ops += n
    return seconds / ops


def heap_ns_per_event() -> float:
    """Self-rescheduling timer chains: schedule/run and nothing else."""
    def batch() -> Tuple[float, int]:
        sim = Simulator()

        def tick(depth: int) -> None:
            if depth:
                sim.schedule(1e-6, tick, depth - 1)

        for _ in range(8):
            sim.schedule(0.0, tick, 25_000)
        start = time.perf_counter()
        sim.run()
        return time.perf_counter() - start, sim.events_run

    return _repeat(batch) * 1e9


def _burst(n: int = 72, dst: int = 1) -> list:
    # 72 x 1500 B = 108 KB: crosses the 96 KB / 86 KB marking thresholds
    # of the simulation fabric's mux without overflowing its 120 KB
    return [Packet(i, 0, dst, 0, 1500, priority=i % 8) for i in range(n)]


def mux_ns_per_pkt() -> float:
    """PriorityMux enqueue + dequeue with the fabric's ECN thresholds."""
    mux = sim_qcfg().build(gbps(40))
    pkts = _burst()

    def batch() -> Tuple[float, int]:
        start = time.perf_counter()
        for _ in range(200):
            for pkt in pkts:
                mux.enqueue(pkt)
            while mux.dequeue() is not None:
                pass
        return time.perf_counter() - start, 200 * len(pkts)

    return _repeat(batch) * 1e9


class _Sink:
    def __init__(self) -> None:
        self.received = 0

    def receive(self, pkt: Packet) -> None:
        self.received += 1


def port_ns_per_pkt() -> float:
    """Port + Wire: serialise and deliver back-to-back packets."""
    sim = Simulator()
    sink = _Sink()
    port = Port(sim, gbps(40), us(2), sim_qcfg().build(gbps(40)), sink, "p")
    pkts = _burst()

    def batch() -> Tuple[float, int]:
        before = sink.received
        start = time.perf_counter()
        for _ in range(100):
            for pkt in pkts:
                port.send(pkt)
            sim.run()
        return time.perf_counter() - start, sink.received - before

    return _repeat(batch) * 1e9


def forward_ns_per_pkt() -> float:
    """Switch.receive on a 4x2 leaf-spine: ECMP over two spine uplinks.

    Only the forwarding calls are timed; the output ports drain in
    between, untimed, so queues never overflow.
    """
    topo = sim_fabric(n_leaf=4, n_spine=2, hosts_per_leaf=2)()
    leaf = topo.network.switches[0]
    # hosts 2..7 hang off the other leaves: two ECMP candidates each
    bursts = [[Packet(flow, 0, 2 + flow % 6, 0, 1500) for flow in range(b, b + 32)]
              for b in range(0, 256, 32)]

    def batch() -> Tuple[float, int]:
        seconds = 0.0
        for _ in range(40):
            for pkts in bursts:
                start = time.perf_counter()
                for pkt in pkts:
                    leaf.receive(pkt)
                seconds += time.perf_counter() - start
                topo.sim.run()
        return seconds, 40 * 256

    return _repeat(batch) * 1e9


def gen_flows_per_s(seed: int) -> float:
    """Pull STREAM_FLOWS flows from the memcached-churn stream."""
    scenario = memcached_stream_scenario(seed, STREAM_FLOWS)
    stream = scenario.build_flows(scenario.build_topology())
    start = time.perf_counter()
    deque(stream, maxlen=0)
    return STREAM_FLOWS / (time.perf_counter() - start)


def checkpoint_mb_per_s(seed: int, work_dir: str) -> Tuple[float, float]:
    """save_checkpoint / load_checkpoint on a mid-run RunState of
    ppt-websearch-leafspine (stopped at the median flow's arrival)."""
    workload = WORKLOADS["ppt-websearch-leafspine"]
    scheme, scenario = workload.make(seed, 1.0)
    flows = scenario.build_flows(scenario.build_topology())
    mid = flows[len(flows) // 2].start_time
    path = os.path.join(work_dir, "mid.ckpt")
    scheme, scenario = workload.make(seed, 1.0)
    run(scheme, dataclasses.replace(scenario, max_time=mid),
        checkpoint_every=mid, checkpoint_path=path)
    state = load_checkpoint(path)
    mb = os.path.getsize(path) / 1e6

    def write() -> Tuple[float, int]:
        start = time.perf_counter()
        save_checkpoint(state, path)
        return time.perf_counter() - start, 1

    def restore() -> Tuple[float, int]:
        start = time.perf_counter()
        load_checkpoint(path)
        return time.perf_counter() - start, 1

    return mb / _repeat(write), mb / _repeat(restore)


def rows(seed: int, work_dir: str) -> Dict[str, float]:
    write, restore = checkpoint_mb_per_s(seed, work_dir)
    return {
        "engine.heap_ns_per_event": heap_ns_per_event(),
        "queues.mux_ns_per_pkt": mux_ns_per_pkt(),
        "link.port_ns_per_pkt": port_ns_per_pkt(),
        "switch.forward_ns_per_pkt": forward_ns_per_pkt(),
        "streams.gen_flows_per_s": gen_flows_per_s(seed),
        "checkpoint.write_mb_per_s": write,
        "checkpoint.restore_mb_per_s": restore,
    }
