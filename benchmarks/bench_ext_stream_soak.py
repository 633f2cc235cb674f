"""Extension: multi-million-flow streamed soak — flat RSS, clean audit.

Two gates on the streaming traffic generator
(:mod:`repro.workloads.streams`):

1. **Flat memory at scale** — drain a two-million-flow tenant-mix
   stream end to end and sample the process RSS along the way.  The
   stream holds one look-ahead flow per source, so resident memory must
   stay flat no matter how many flows pass through; the materialized
   equivalent would hold ~hundreds of MB of ``Flow`` objects.
2. **Validated streamed soak** — run the long-horizon soak scenario
   from a stream under the invariant auditor and require zero
   violations and full completion, i.e. lazy flow injection is
   invisible to the transport machinery.

The soak horizon scales with ``STREAM_SOAK_HORIZON`` (simulated
seconds, default 600 for CI smoke); the acceptance-scale run is a
manual ``STREAM_SOAK_HORIZON=86400`` session.  The 2M-flow generation
gate always runs at full scale — it costs seconds.
"""

import os
import tracemalloc

from repro.experiments.runner import run
from repro.experiments.scenarios import soak_scenario
from repro.sim.engine import Simulator
from repro.sim.link import Port
from repro.sim.packet import Packet
from repro.sim.queues import PriorityMux
from repro.sim.routing import SprayBalancer, make_balancer
from repro.sim.switch import Switch
from repro.transport.dctcp import Dctcp
from repro.units import gbps
from repro.workloads import TenantClass, tenant_mix_stream
from repro.workloads.distributions import MEMCACHED_W1, WEB_SEARCH
from repro.workloads.patterns import all_to_all

N_FLOWS = 2_000_000
RSS_SAMPLES = 8
# generous: covers allocator noise and RNG/heap churn, while a
# materialized 2M-flow list would blow through it 5-10x over
MAX_RSS_GROWTH_MB = 64

SOAK_HORIZON = float(os.environ.get("STREAM_SOAK_HORIZON", "600"))


def _rss_mb() -> float:
    with open("/proc/self/statm") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 1e6


def _drain_with_rss(stream, n_flows):
    """Drain ``stream`` fully, sampling RSS at regular intervals."""
    samples = []
    step = n_flows // RSS_SAMPLES
    count = 0
    for _ in stream:
        count += 1
        if count % step == 0:
            samples.append(_rss_mb())
    return count, samples


def _build_two_million_stream():
    mix = [TenantClass("memcached-w1", MEMCACHED_W1, 3.0),
           TenantClass("web-search", WEB_SEARCH, 1.0, size_cap=1_000_000)]
    return tenant_mix_stream(mix, all_to_all(range(16)), load=0.5,
                             link_rate=gbps(40), n_flows=N_FLOWS,
                             n_senders=16, seed=1)


def test_two_million_flow_stream_rss_flat(benchmark):
    def drain():
        return _drain_with_rss(_build_two_million_stream(), N_FLOWS)

    count, samples = benchmark.pedantic(drain, rounds=1, iterations=1)
    assert count == N_FLOWS
    growth = max(samples) - samples[0]
    print(f"\n=== Extension: 2M-flow stream RSS ===")
    print(f"rss samples (MB): {[f'{s:.1f}' for s in samples]}")
    print(f"growth after first sample: {growth:.1f}MB")
    assert growth < MAX_RSS_GROWTH_MB, (
        f"stream drain RSS grew {growth:.1f}MB over {N_FLOWS} flows — "
        f"the generator is accumulating flows")


N_SWITCH_FLOWS = 200_000
# per-flow ECMP and spray hold ZERO per-flow switch state after the
# unbounded `_ecmp_cache` removal; the allowance covers counter churn
MAX_SWITCH_GROWTH_KB = 64
# a flowlet balancer holds state only for flows seen within one idle
# gap (the lazy sweep evicts the rest) — bounded by the active window,
# not the flow count; an unbounded table would hold ~40MB here
MAX_FLOWLET_GROWTH_KB = 512


def _forwarding_harness():
    """A switch with two equal-cost output ports, held non-draining.

    Both ports are pinned ``busy`` so :meth:`Switch.receive` exercises
    exactly the selection + enqueue path without scheduling transmit
    events; the tiny shared buffers fill once and then every packet
    drops, so all growth measured is *switch/balancer* state.
    """
    sim = Simulator()
    switch = Switch(0)
    for i in range(2):
        mux = PriorityMux(buffer_bytes=10_000)
        port = Port(sim, gbps(40), 1e-6, mux, name=f"out{i}")
        port.busy = True
        switch.add_route(0, port)
    return sim, switch


def _forward_distinct_flows(sim, switch, n_flows):
    for flow_id in range(n_flows):
        sim.now += 1e-6
        switch.receive(Packet(flow_id, src=1, dst=0, seq=0, size=1500))


def _traced_growth_kb(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        before, _ = tracemalloc.get_traced_memory()
        fn()
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return (after - before) / 1e3


def test_switch_state_memory_bounded():
    """Forwarding 200k distinct flows must not grow switch state.

    Regression gate for the unbounded per-flow ``_ecmp_cache``: the
    stateless hash needs no memo, spray wraps its counter modulo a safe
    multiple, and the flowlet balancer's lazy sweep evicts idle flows —
    so none of the three modes may accumulate per-flow memory.
    """
    print("\n=== Extension: switch-state memory over "
          f"{N_SWITCH_FLOWS} distinct flows ===")
    for mode, lb, limit_kb in (
            ("ecmp", None, MAX_SWITCH_GROWTH_KB),
            ("spray", SprayBalancer(), MAX_SWITCH_GROWTH_KB),
            ("flowlet", make_balancer("flowlet"), MAX_FLOWLET_GROWTH_KB)):
        sim, switch = _forwarding_harness()
        switch.lb = lb
        growth = _traced_growth_kb(
            lambda: _forward_distinct_flows(sim, switch, N_SWITCH_FLOWS))
        print(f"{mode}: second-pass growth {growth:.1f}KB "
              f"(limit {limit_kb}KB)")
        assert growth < limit_kb * 1.0, (
            f"{mode} switch state grew {growth:.1f}KB over "
            f"{N_SWITCH_FLOWS} flows — per-flow state is accumulating")
        if mode == "spray":
            assert lb._value < lb._modulus == 720_720


def test_validated_streamed_soak_clean(benchmark):
    def soak():
        scenario = soak_scenario("stream-soak", horizon=SOAK_HORIZON,
                                 stream=True)
        return run(Dctcp(), scenario, validate=True)

    result = benchmark.pedantic(soak, rounds=1, iterations=1)
    print(f"\n=== Extension: validated streamed soak "
          f"(horizon={SOAK_HORIZON:g}s) ===")
    print(f"flows: {result.completed}/{result.health.n_flows}  "
          f"events: {result.wall_events}  "
          f"validation: {result.validation.describe()}")
    assert result.validation.ok, result.validation.describe()
    assert result.completed == result.health.n_flows
    assert not result.health.stalled
