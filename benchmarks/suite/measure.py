"""What a measurement child process does: one workload, one seed.

Three modes, each printing one JSON object as its last line:

* ``setup``  — build everything a run needs up to the first event, once
  (the parent times the whole process, start to exit);
* ``timed``  — a warm-up rep at 1/10 size, then identical full-size reps
  for the time window, tracing off: the end-to-end numbers;
* ``traced`` — one plain rep for the exact-repeat counters, one rep
  under cProfile for the self-time table, one rep each with the
  observer and the invariant auditor attached, then the micro rows: the
  per-layer numbers.

The simulator is reached through public calls only.
"""

from __future__ import annotations

import cProfile
import gc
import itertools
import os
import resource
import shutil
import statistics
import time
from typing import Dict, List, Optional

import repro
from repro.experiments.runner import run
from repro.workloads.streams import FlowStream

import layers
import micro
from calibrate import Calibrated
from workloads import WORKLOADS, Workload

REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__))
WARMUP_SCALE = 0.1
MIN_REPS = 3
STREAM_PREFETCH = 1_000


def setup(workload: Workload, seed: int, scale: float) -> Dict[str, object]:
    """Everything between process start and the first simulated event."""
    scheme, scenario = workload.make(seed, scale)
    topo = scenario.build_topology()
    source = scenario.build_flows(topo)
    if isinstance(source, FlowStream):
        pulled = sum(1 for _ in itertools.islice(source, STREAM_PREFETCH))
    else:
        pulled = len(source)
    scheme.configure_network(topo.network)
    return {"ready": True, "flows_ready": pulled}


class _Reps:
    """Runs reps of one workload between calibration blocks."""

    def __init__(self, workload: Workload, seed: int, scale: float) -> None:
        self.workload, self.seed, self.scale = workload, seed, scale
        self.cal = Calibrated()

    def warm_up(self) -> None:
        scheme, scenario = self.workload.make(
            self.seed, self.scale * WARMUP_SCALE)
        run(scheme, scenario)

    def rep(self, runner=run, **run_kwargs):
        """One full rep: ``(result, raw_seconds, scaled_seconds)``.
        Only the ``run()`` call is timed."""
        gc.collect()
        scheme, scenario = self.workload.make(self.seed, self.scale)
        return self.cal.timed(lambda: runner(scheme, scenario, **run_kwargs))


def timed(workload: Workload, seed: int, scale: float, seconds: float,
          reps: Optional[int]) -> Dict[str, object]:
    """End-to-end numbers.  With ``reps`` exactly that many; otherwise
    as many as fit in ``seconds`` (at least MIN_REPS)."""
    bench = _Reps(workload, seed, scale)
    bench.warm_up()
    deadline = time.perf_counter() + seconds
    raw: List[float] = []
    scaled: List[float] = []
    prints: List[str] = []
    flows = completed = failed = 0
    completed_bytes = 0
    while True:
        began = time.perf_counter()
        result, r, s = bench.rep()
        raw.append(r)
        scaled.append(s)
        prints.append(layers.fingerprint(result.flows))
        flows = len(result.flows)
        failed += layers.check_flows(result)
        completed = result.completed
        completed_bytes = sum(f.size for f in result.flows if f.completed)
        del result
        if reps is not None:
            if len(raw) >= reps:
                break
        elif (len(raw) >= MIN_REPS and
              time.perf_counter() + (time.perf_counter() - began) > deadline):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    agree = len(set(prints)) == 1
    wall = statistics.median(scaled)
    return {
        "wall_s": wall,
        "wall_raw_s": statistics.median(raw),
        "rep_scaled_s": scaled,
        "rep_raw_s": raw,
        "sim_goodput_mb_per_s": completed_bytes / 1e6 / wall,
        "flows_per_s": completed / wall,
        "peak_rss_mb": peak_rss_mb,
        "fingerprint": prints[0],
        "attempted": flows * len(raw),
        # reps that disagree on the simulated outcome are all suspect
        "failed": failed if agree else flows * len(raw),
        "notes": [] if agree else ["rep fingerprints disagree"],
    }


def traced(workload: Workload, seed: int, scale: float,
           work_dir: str) -> Dict[str, object]:
    """Per-layer numbers: counters, self-time table, instrumentation
    cost, micro rows."""
    bench = _Reps(workload, seed, scale)
    bench.warm_up()
    notes: List[str] = []

    result, base_raw, base = bench.rep()
    print_ = layers.fingerprint(result.flows)
    n_flows = len(result.flows)
    failed = layers.check_flows(result)
    metrics = layers.counters(result, workload.streamed)
    metrics["engine.events_per_s"] = result.wall_events / base
    metrics["runner.harvest_s"] = layers.harvest_seconds(result.flows)
    del result

    profile = cProfile.Profile()
    result, traced_raw, traced_scaled = bench.rep(
        lambda scheme, scenario: profile.runcall(run, scheme, scenario))
    if layers.fingerprint(result.flows) != print_:
        notes.append("traced rep fingerprint differs from untraced")
    del result
    self_s = layers.self_time_by_layer(profile, REPRO_DIR)
    total = sum(self_s.values())
    for layer, seconds in self_s.items():
        name = "trace.other_self_s" if layer == "other" else f"{layer}.self_s"
        metrics[name] = seconds
    metrics["trace.total_self_s"] = total
    metrics["trace.overhead_x"] = traced_scaled / base

    for key, kwargs in (("obs.observe_overhead_frac", {"observe": True}),
                        ("validate.audit_overhead_frac", {"validate": True})):
        result, _, scaled = bench.rep(**kwargs)
        metrics[key] = scaled / base - 1.0
        if layers.fingerprint(result.flows) != print_:
            notes.append(f"{key}: fingerprint differs from the plain rep")
        if result.validation is not None and not result.validation.ok:
            notes.append(f"auditor: {result.validation.describe()}")
        del result

    os.makedirs(work_dir, exist_ok=True)
    try:
        metrics.update(micro.rows(seed, work_dir))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    return {
        "metrics": metrics,
        "fingerprint": print_,
        "attempted": n_flows,
        "failed": failed if not notes else n_flows,
        "notes": notes,
        "table": {"base_wall_s": base, "base_wall_raw_s": base_raw,
                  "traced_wall_raw_s": traced_raw, "self_s": self_s,
                  "total_self_s": total},
    }


def main(mode: str, workload_name: str, seed: int, scale: float,
         seconds: float, reps: Optional[int], work_dir: str) -> Dict[str, object]:
    workload = WORKLOADS[workload_name]
    seed += workload.default_seed
    if mode == "setup":
        return setup(workload, seed, scale)
    if mode == "timed":
        return timed(workload, seed, scale, seconds, reps)
    if mode == "traced":
        return traced(workload, seed, scale, work_dir)
    raise ValueError(f"unknown child mode {mode!r}")
