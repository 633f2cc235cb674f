"""Per-layer accounting: which source file belongs to which layer, the
self-time table of a profiled run, and the exact-repeat counters read
off a finished :class:`~repro.experiments.runner.RunResult`.

A layer is a module name.  ``LAYER_FILES`` is the one table that maps
``src/repro`` files to layers; a profiled file matching no pattern (or
two) is an error, so a new module cannot drift into "other" unnoticed.
"""

from __future__ import annotations

import cProfile
import fnmatch
import hashlib
import os
import pstats
import time
from typing import Dict, List, Tuple

from repro.core.lcp import LcpController
from repro.metrics.fct import FctStats
from repro.transport.window import WindowSender

# paths relative to src/repro
LAYER_FILES: Dict[str, List[str]] = {
    "engine": ["sim/engine.py"],          # plus the heapq builtins
    "link": ["sim/link.py"],
    "queues": ["sim/queues.py"],
    "switch": ["sim/switch.py", "sim/routing.py"],
    "host": ["sim/host.py", "sim/network.py", "sim/packet.py",
             "transport/base.py"],
    "window": ["transport/window.py", "transport/dctcp.py"],
    "lcp": ["core/*.py"],
    "homa": ["transport/homa.py"],
    "streams": ["workloads/*.py"],
    "runner": ["experiments/runner.py", "metrics/*.py"],
    "hybrid": ["sim/hybrid.py"],
    # fabric and flow-source construction that run() does before the
    # first event: not a layer the issue names, kept apart so it cannot
    # hide inside "runner"
    "setup": ["experiments/scenarios.py", "sim/topology.py", "units.py",
              "resilience/checkpoint.py"],
}


class LayerMapError(RuntimeError):
    """A profiled ``src/repro`` file is assigned to no layer, or to two."""


def layer_of(relpath: str) -> str:
    relpath = relpath.replace(os.sep, "/")
    matches = [layer for layer, patterns in LAYER_FILES.items()
               if any(fnmatch.fnmatchcase(relpath, p) for p in patterns)]
    if len(matches) != 1:
        raise LayerMapError(
            f"src/repro/{relpath} appears in the profile but is assigned to "
            f"{matches or 'no layer'}; add it to exactly one entry of "
            f"LAYER_FILES in benchmarks/suite/layers.py")
    return matches[0]


def self_time_by_layer(profile: cProfile.Profile, repro_dir: str) -> Dict[str, float]:
    """Sum ``tottime`` (self time) per layer; ``other`` takes everything
    outside ``src/repro`` except the heapq builtins (engine)."""
    repro_dir = os.path.realpath(repro_dir) + os.sep
    totals = {layer: 0.0 for layer in LAYER_FILES}
    totals["other"] = 0.0
    for (filename, _, func), (_, _, tottime, _, _) in \
            pstats.Stats(profile).stats.items():  # type: ignore[attr-defined]
        real = os.path.realpath(filename) if filename != "~" else filename
        if real.startswith(repro_dir):
            totals[layer_of(real[len(repro_dir):])] += tottime
        elif filename == "~" and "_heapq" in func:
            totals["engine"] += tottime
        else:
            totals["other"] += tottime
    return totals


def fingerprint(flows) -> str:
    """sha256 over sorted ``(flow_id, fct)`` — the run's simulated outcome."""
    digest = hashlib.sha256()
    for flow_id, fct in sorted((f.flow_id, f.fct) for f in flows):
        digest.update(f"{flow_id}:{fct!r};".encode())
    return digest.hexdigest()


def fingerprint_number(hexdigest: str) -> int:
    """The first 48 bits, exact in a JSON double."""
    return int(hexdigest[:12], 16)


def harvest_seconds(flows, repeats: int = 5) -> float:
    """Median wall time of ``FctStats.from_flows`` (the runner's harvest)."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        FctStats.from_flows(flows)
        samples.append(time.perf_counter() - start)
    return sorted(samples)[repeats // 2]


def _finite_ms(value: float, n: int) -> float:
    return value * 1e3 if n else 0.0


def _delivered_bytes(result) -> Tuple[int, float]:
    """Wire bytes hosts took off the fabric, and bytes the hybrid fast
    path delivered analytically (0.0 without a HybridController)."""
    fabric = sum(h.bytes_from_fabric
                 for h in result.topology.network.hosts.values())
    hybrid = result.ctx.extra.get("hybrid")
    return fabric, hybrid.delivered_wire_bytes if hybrid else 0.0


def counters(result, streamed: bool) -> Dict[str, float]:
    """Exact-repeat per-layer counts from public counters of a run."""
    network = result.topology.network
    health, stats = result.health, result.stats
    hosts = list(network.hosts.values())
    ports = network.ports
    sim_seconds = health.sim_time

    senders = [ep for host in hosts for ep in host.endpoints.values()
               if isinstance(ep, WindowSender)]
    loops = [s.lcp for s in senders
             if isinstance(getattr(s, "lcp", None), LcpController)]
    transmitted = sum(s.pkts_transmitted for s in senders)
    lp_sent = sum(c.lp_pkts_sent for c in loops)
    injected = sum(h.pkts_to_fabric for h in hosts)
    fabric_bytes, abstract_bytes = _delivered_bytes(result)
    hybrid = result.ctx.extra.get("hybrid")

    return {
        "engine.events": result.wall_events,
        "engine.events_per_pkt": result.wall_events / max(1, injected),
        "engine.peak_pending": health.peak_pending,
        "link.pkts_sent": sum(p.pkts_sent for p in ports),
        "link.busy_frac": (sum(p.busy_time for p in ports)
                           / (len(ports) * sim_seconds)) if sim_seconds else 0.0,
        "queues.offered": sum(p.mux.stats.offered for p in ports),
        "queues.dropped": sum(p.mux.stats.dropped for p in ports),
        "queues.marked": sum(p.mux.stats.marked for p in ports),
        "queues.trimmed": sum(p.mux.stats.trimmed for p in ports),
        "switch.pkts_forwarded": sum(s.pkts_forwarded
                                     for s in network.switches),
        "window.pkts_transmitted": transmitted,
        "window.retransmits": sum(s.pkts_retransmitted for s in senders),
        "window.rtos": sum(s.rtos_fired for s in senders),
        "window.acks": sum(s.acks_received for s in senders),
        "lcp.lp_pkts_sent": lp_sent,
        "lcp.loops_opened": sum(c.loops_opened for c in loops),
        "lcp.lp_share": lp_sent / transmitted if transmitted else 0.0,
        "streams.flows_generated": len(result.flows) if streamed else 0,
        "hybrid.flows_abstracted": hybrid.flows_abstracted if hybrid else 0,
        "hybrid.flows_demoted": hybrid.flows_demoted if hybrid else 0,
        "hybrid.epochs": hybrid.epochs if hybrid else 0,
        "hybrid.abstract_byte_share": (
            abstract_bytes / (abstract_bytes + fabric_bytes)
            if abstract_bytes else 0.0),
        "sim.fct_avg_ms": _finite_ms(stats.overall_avg, stats.n_flows),
        "sim.small_p99_ms": _finite_ms(stats.small_p99, stats.n_small),
        "sim.large_avg_ms": _finite_ms(stats.large_avg, stats.n_large),
        "sim.sim_seconds": sim_seconds,
        "sim.fingerprint": fingerprint_number(fingerprint(result.flows)),
    }


def check_flows(result) -> int:
    """Number of failed flows in a finished run.

    A flow fails when it did not complete or finished faster than its
    payload can cross the edge link.  The run as a whole fails (every
    flow counted) when ``RunHealth.ok`` is false or the bytes the fabric
    (plus the hybrid fast path) delivered to hosts are fewer than the
    sum of flow sizes.
    """
    flows = result.flows
    delivered = sum(_delivered_bytes(result))
    if (not result.health.ok or result.health.n_flows != len(flows)
            or delivered < sum(f.size for f in flows)):
        return len(flows)
    byte_time = 8.0 / result.topology.edge_rate
    return sum(1 for f in flows
               if f.fct is None or f.fct < f.size * byte_time)
