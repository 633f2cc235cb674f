"""The paper's claims and the extension studies' (``ext-*`` figures) in
``repro.experiments.claims``, one test each, and the checks that are not
one comparison: Tables 1-3, Fig 18's band, Fig 19's trend, row counts
and complete runs.

Each figure driver runs once per keyword set, at its default scale, the
first time a test reads it (under ``benchmark.pedantic``, so
``--benchmark-only`` keeps every test); later tests reuse its rows.  A
claim the reproduction fails today is a strict xfail whose reason quotes
its two numbers, so the run fails when it turns green or goes red on
other numbers::

    PYTHONPATH=src python -m pytest benchmarks/bench_claims.py -q -rx
    PYTHONPATH=src python -m pytest benchmarks/bench_claims.py -k fig12 -s
"""

import functools

import pytest

from repro.cli import FIGURES
from repro.experiments import tables
from repro.experiments.claims import CLAIMS, evaluate
from repro.experiments.runner import format_table


@functools.lru_cache(maxsize=None)
def _rows(figure, kwargs=()):
    rows = FIGURES[figure](**dict(kwargs))["rows"]
    print(f"\n=== {figure} {dict(kwargs)} ===" if kwargs
          else f"\n=== {figure} ===")
    print(format_table(rows))
    return rows


def _figure(benchmark, figure, kwargs=()):
    return benchmark.pedantic(_rows, (figure, kwargs), rounds=1,
                              iterations=1)


def _param(claim):
    marks = pytest.mark.xfail(strict=True, raises=AssertionError,
                              reason=claim.xfail) if claim.xfail else ()
    return pytest.param(claim, id=claim.id, marks=marks)


@pytest.mark.parametrize("claim", [_param(claim) for claim in CLAIMS])
def test_claim(benchmark, claim):
    holds, account = evaluate(
        claim, _figure(benchmark, claim.figure, claim.kwargs))
    print(f"{claim.id}: {account}")
    if claim.xfail and not holds and not claim.xfail.endswith(account):
        pytest.fail(f"{claim.id} is red on other numbers: {account}")
    assert holds, f"{claim.id}: {account}"


@pytest.mark.parametrize("figure, kwargs", [
    pytest.param("fig12", (("workload", "web-search"),), id="fig12"),
    pytest.param("fig12", (("seed", 23),), id="fig12-s23"),
    pytest.param("fig12", (("seed", 101),), id="fig12-s101"),
    pytest.param("sec63", (), id="sec63"),
    pytest.param("ext-baselines", (), id="ext-baselines"),
    pytest.param("ext-buffer-model", (), id="ext-buffer-model"),
])
def test_every_flow_completes(benchmark, figure, kwargs):
    """An average over the flows that finished would compare schemes on
    different flows."""
    rows = _figure(benchmark, figure, kwargs)
    assert [row["flows"] for row in rows] == [150] * len(rows)


def test_fig01_average_below_the_load(benchmark):
    (row,) = _figure(benchmark, "fig01")
    assert row["avg_utilization"] < row["ideal"] + 0.02


def test_fig18_overall_in_the_same_ballpark(benchmark):
    rows = {row["scheme"]: row for row in _figure(benchmark, "fig18")}
    full, ablated = rows["ppt"], rows["ppt-noident"]
    assert abs(ablated["overall_avg_ms"] - full["overall_avg_ms"]) \
        <= full["overall_avg_ms"] * 0.25


def test_fig19_relative_gap_shrinks_with_load(benchmark):
    rows = _figure(benchmark, "fig19")
    relative = [row["gap_pct"] / row["dctcp_cpu_pct"] for row in rows]
    assert relative[-1] < relative[0]


def test_fig23_runs_no_rc3(benchmark):
    rows = _figure(benchmark, "fig23")
    assert not any(row["scheme"] == "rc3" for row in rows)


def test_fig24_three_rc3_caps(benchmark):
    rows = _figure(benchmark, "fig24")
    assert len([row for row in rows if row["scheme"] == "rc3"]) == 3


def test_fig27_three_send_buffers(benchmark):
    assert len(_figure(benchmark, "fig27")) == 3


def _run_table(benchmark, title, fn):
    rows = benchmark.pedantic(fn, rounds=1, iterations=1)
    print(f"\n=== {title} ===")
    print(format_table(rows))
    return rows


def test_table1_design_space(benchmark):
    rows = _run_table(benchmark, "Table 1: prior transports vs PPT",
                  tables.table1)
    ppt = next(r for r in rows if r["scheme"] == "PPT")
    # PPT is the only row that is graceful + schedules without flow size
    # + commodity + TCP/IP-compatible + non-intrusive.
    assert ppt["spare_bw_pattern"] == "graceful"
    assert ppt["sched_wo_flow_size"] == "yes"
    assert ppt["commodity_switches"] == "yes"
    assert ppt["tcpip_compatible"] == "yes"
    assert ppt["non_intrusive"] == "yes"
    full_marks = [r for r in rows
                  if r["sched_wo_flow_size"] == "yes"
                  and r["spare_bw_pattern"] == "graceful"]
    assert [r["scheme"] for r in full_marks] == ["PPT"]


def test_table2_workload_statistics(benchmark):
    rows = _run_table(benchmark, "Table 2: flow size distributions",
                  tables.table2)
    ws = next(r for r in rows if r["workload"] == "web-search")
    dm = next(r for r in rows if r["workload"] == "data-mining")
    # paper: 62%/38% and 1.6MB; 83%/17% and 7.41MB
    assert ws["short_flows_0_100KB"] in ("61%", "62%", "63%")
    assert dm["short_flows_0_100KB"] in ("82%", "83%", "84%")
    assert 1.2 <= ws["average_size_MB"] <= 1.8
    assert 6.0 <= dm["average_size_MB"] <= 9.0


def test_table3_testbed_parameters(benchmark):
    rows = _run_table(benchmark, "Table 3: testbed parameters", tables.table3)
    params = {r["parameter"]: r["setting"] for r in rows}
    assert params["RTO_min"] == "10ms"
    assert params["RTTbytes for Homa"] == "50KB"
    assert params["LCP's ECN threshold"] == "80KB"
