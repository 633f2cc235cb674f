"""Tests for FCT statistics, the per-flow table, the periodic probe and CPU
metrics."""

import functools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_ctx, make_star, run_single_flow
from repro.core.ppt import Ppt
from repro.metrics.cpu import CpuStats, collect_cpu
from repro.metrics.fct import SMALL_FLOW_BYTES, FctStats, mean, percentile, reduction
from repro.metrics.flowtable import FlowTable
from repro.metrics.probe import Probe
from repro.transport.base import Flow
from repro.transport.dctcp import Dctcp


def make_flow(size, fct, flow_id=0):
    flow = Flow(flow_id, 0, 1, size, start_time=1.0)
    flow.finish_time = 1.0 + fct
    return flow


# -- percentile / mean ---------------------------------------------------------


def test_percentile_basics():
    values = [1.0, 2.0, 3.0, 4.0, 5.0]
    assert percentile(values, 0) == 1.0
    assert percentile(values, 50) == 3.0
    assert percentile(values, 100) == 5.0
    assert percentile(values, 75) == pytest.approx(4.0)


def test_percentile_empty_is_nan():
    assert math.isnan(percentile([], 99))


def test_mean_empty_is_nan():
    assert math.isnan(mean([]))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1,
                max_size=100),
       st.floats(min_value=0, max_value=100))
def test_percentile_properties(values, p):
    result = percentile(values, p)
    assert min(values) <= result <= max(values)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=2,
                max_size=50))
def test_percentile_monotone_in_p(values):
    ps = [0, 25, 50, 75, 99, 100]
    results = [percentile(values, p) for p in ps]
    assert results == sorted(results)


# -- FctStats ------------------------------------------------------------------


def test_fct_stats_partitions_small_large():
    flows = [make_flow(50_000, 1e-3, 0), make_flow(50_000, 3e-3, 1),
             make_flow(500_000, 10e-3, 2)]
    stats = FctStats.from_flows(flows)
    assert stats.n_flows == 3
    assert stats.n_small == 2
    assert stats.n_large == 1
    assert stats.small_avg == pytest.approx(2e-3)
    assert stats.large_avg == pytest.approx(10e-3)
    assert stats.overall_avg == pytest.approx((1 + 3 + 10) / 3 * 1e-3)


def test_fct_stats_boundary_is_inclusive_small():
    stats = FctStats.from_flows([make_flow(SMALL_FLOW_BYTES, 1e-3)])
    assert stats.n_small == 1


def test_fct_stats_ignores_incomplete():
    incomplete = Flow(9, 0, 1, 1000, 0.0)
    stats = FctStats.from_flows([make_flow(1000, 1e-3), incomplete])
    assert stats.n_flows == 1


def test_fct_stats_row_and_str():
    stats = FctStats.from_flows([make_flow(1000, 1e-3)])
    row = stats.row()
    assert row["overall_avg_ms"] == pytest.approx(1.0)
    assert "overall" in str(stats)


def test_fct_stats_row_marks_empty_small_bucket():
    """A run with only large flows renders small-bucket cells as the
    explicit "n=0" marker instead of NaN (which formats as 'nan' and
    silently poisons downstream table averages)."""
    stats = FctStats.from_flows([make_flow(500_000, 1e-2)])
    assert stats.n_small == 0 and stats.n_large == 1
    assert math.isnan(stats.small_avg)  # raw stat stays NaN on purpose
    row = stats.row()
    assert row["small_avg_ms"] == "n=0"
    assert row["small_p99_ms"] == "n=0"
    assert row["large_avg_ms"] == pytest.approx(10.0)
    assert "n=0" in str(stats)
    assert "nan" not in str(stats)


def test_fct_stats_row_all_empty():
    row = FctStats.from_flows([]).row()
    assert row["overall_avg_ms"] == "n=0"
    assert row["small_avg_ms"] == "n=0"
    assert row["large_avg_ms"] == "n=0"


def test_reduction():
    assert reduction(10.0, 5.0) == pytest.approx(50.0)
    assert reduction(10.0, 10.0) == 0.0
    assert math.isnan(reduction(0.0, 5.0))


# -- probe ----------------------------------------------------------------------


def _bytes_sent(port):
    return port.bytes_sent


def _occupancy(port):
    return port.mux.occupancy, port.mux.hp_occupancy


def utilization_probe(topo, interval):
    port = topo.network.port_to_host(2)
    return Probe(topo.sim, functools.partial(_bytes_sent, port), interval)


def utilizations(probe, port):
    capacity = port.rate_bps * probe.interval / 8.0
    sent = [value for _time, value in probe.samples]
    return [(now - before) / capacity for before, now in zip(sent, sent[1:])]


def busy_star(size):
    """A star with one DCTCP flow into host 2, not yet run."""
    topo = make_star(3)
    flow = Flow(0, 0, 2, size, 0.0)
    Dctcp().start_flow(flow, make_ctx(topo))
    return topo, flow


def test_link_utilization_sampler_idle_link():
    topo = make_star(3)
    probe = utilization_probe(topo, 10e-6)
    topo.sim.run(until=100e-6)
    assert len(probe.samples) > 1
    assert utilizations(probe, topo.network.port_to_host(2)) == [0.0] * (
        len(probe.samples) - 1)


def test_link_utilization_sampler_busy_link():
    topo, flow = busy_star(2_000_000)
    probe = utilization_probe(topo, 20e-6)
    topo.sim.run(until=2.0)
    assert flow.completed
    peak = max(utilizations(probe, topo.network.port_to_host(2)))
    assert 0.8 <= peak <= 1.05


def test_buffer_occupancy_sampler():
    topo = make_star(3)
    port = topo.network.port_to_host(2)
    probe = Probe(topo.sim, functools.partial(_occupancy, port), 10e-6)
    topo.sim.run(until=100e-6)
    assert probe.samples[0] == (0.0, (0, 0))
    assert {value for _time, value in probe.samples} == {(0, 0)}


# -- efficiency ----------------------------------------------------------------


def test_efficiency_lossless_run_is_unity():
    flow, ctx, topo = run_single_flow(Dctcp(), 200_000, until=1.0)
    table = FlowTable.harvest([flow], topo.network, ctx.retired)
    assert sum(table.pkts_sent) >= flow.n_packets(ctx.config.mss)
    assert table.efficiency() == pytest.approx(1.0, abs=0.02)


def test_efficiency_counts_ppt_lp_traffic():
    flow, ctx, topo = run_single_flow(Ppt(), 300_000, until=1.0)
    table = FlowTable.harvest([flow], topo.network, ctx.retired)
    assert sum(table.lp_pkts_sent) > 0
    assert 0.0 < table.efficiency(lp=True) <= 1.0


def test_efficiency_nan_when_nothing_sent():
    topo = make_star(3)
    table = FlowTable.harvest([], topo.network)
    assert math.isnan(table.efficiency())
    assert math.isnan(table.efficiency(lp=True))


# -- cpu proxy -----------------------------------------------------------------


def test_cpu_ops_counted():
    flow, ctx, topo = run_single_flow(Dctcp(), 100_000, until=1.0)
    cpu = collect_cpu(topo.network, duration=flow.finish_time)
    assert cpu.total_ops > 0
    assert cpu.ops_per_second > 0
    assert cpu.usage_proxy() > 0


def test_cpu_zero_duration_is_nan():
    stats = CpuStats(ops_by_host={0: 10}, duration=0.0)
    assert math.isnan(stats.ops_per_second)


def test_ppt_overhead_scales_with_lp_traffic():
    """PPT's extra datapath ops over DCTCP come from opportunistic
    packets — a bounded, small increment (Fig. 19's claim)."""
    f1, _, topo1 = run_single_flow(Dctcp(), 500_000, until=1.0)
    f2, _, topo2 = run_single_flow(Ppt(), 500_000, until=1.0)
    ops_dctcp = collect_cpu(topo1.network, f1.finish_time).total_ops
    ops_ppt = collect_cpu(topo2.network, f2.finish_time).total_ops
    assert ops_ppt >= ops_dctcp * 0.9
    assert ops_ppt <= ops_dctcp * 2.5


# -- probe lifecycle -------------------------------------------------------------


def test_sampler_stop_cancels_pending_tick():
    topo, _flow = busy_star(2_000_000)
    probe = utilization_probe(topo, 10e-6)
    topo.sim.run(until=35e-6)
    n = len(probe.samples)
    assert n == 4  # t = 0, 10, 20, 30 us
    probe.stop()
    assert probe.stopped
    assert probe._pending is None
    topo.sim.run(until=200e-6)
    assert len(probe.samples) == n  # never fired again


def test_sampler_auto_stops_when_fabric_idle():
    """Once nothing but probe ticks remains in the heap, the probe stops
    rescheduling instead of keeping the heap warm forever."""
    topo, flow = busy_star(50_000)
    probe = utilization_probe(topo, 20e-6)
    topo.sim.run(until=10.0)
    assert flow.completed
    assert probe.stopped
    assert probe.samples[-1][0] < 1e-3
    # the heap fully drained — the runner's heap-empty early exit works
    assert topo.sim.live_pending == 0


def test_occupancy_sampler_auto_stops_too():
    topo, flow = busy_star(50_000)
    probe = Probe(topo.sim, functools.partial(
        _occupancy, topo.network.port_to_host(2)), 20e-6)
    topo.sim.run(until=10.0)
    assert flow.completed
    assert probe.stopped
    assert topo.sim.live_pending == 0


def test_two_samplers_both_auto_stop():
    topo, _flow = busy_star(50_000)
    port = topo.network.port_to_host(2)
    util = Probe(topo.sim, functools.partial(_bytes_sent, port), 20e-6)
    occ = Probe(topo.sim, functools.partial(_occupancy, port), 30e-6)
    topo.sim.run(until=10.0)
    assert util.stopped and occ.stopped
    assert topo.sim.live_pending == 0
