"""Tests for trace-file loading/saving."""

import pytest

from repro.experiments.runner import Scenario, run
from repro.experiments.scenarios import sim_fabric
from repro.transport.base import Flow
from repro.transport.dctcp import Dctcp
from repro.units import gbps
from repro.workloads.distributions import WEB_SEARCH
from repro.workloads.patterns import all_to_all
from repro.workloads.streams import flow_stream
from repro.workloads.tracefile import (
    TraceFormatError,
    load_csv,
    load_jsonl,
    load_trace,
    save_trace,
    trace_scenario_flows,
)


def sample_flows():
    return [
        Flow(0, 0, 1, 10_000, 0.0),
        Flow(1, 2, 3, 500_000, 1e-4),
        Flow(2, 1, 0, 999, 2e-4),
    ]


def assert_same(a, b):
    assert [(f.flow_id, f.src, f.dst, f.size, f.start_time) for f in a] == \
           [(f.flow_id, f.src, f.dst, f.size, f.start_time) for f in b]


@pytest.mark.parametrize("suffix", ["csv", "jsonl", "ndjson", "json"])
def test_round_trip_every_suffix(tmp_path, suffix):
    """save_trace and load_trace must agree on the format for every
    suffix — ``.json`` used to be written as CSV but read as JSONL, so
    a file could never load back."""
    path = tmp_path / f"trace.{suffix}"
    save_trace(sample_flows(), path)
    assert_same(load_trace(path), sample_flows())
    first = path.read_text().splitlines()[0]
    if suffix == "csv":
        assert first.startswith("flow_id")
    else:
        assert first.lstrip().startswith("{")


def test_headerless_csv(tmp_path):
    path = tmp_path / "raw.csv"
    path.write_text("0,0,1,10000,0.0\n1,2,3,500,0.0001\n")
    flows = load_csv(path)
    assert len(flows) == 2
    assert flows[1].size == 500


def test_jsonl_without_flow_id_uses_line_number(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text('{"src":0,"dst":1,"size":100,"start_time":0.0}\n'
                    '{"src":1,"dst":0,"size":200,"start_time":0.1}\n')
    flows = load_jsonl(path)
    assert [f.flow_id for f in flows] == [0, 1]


def test_flows_sorted_by_start_time(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text(
        '{"flow_id":5,"src":0,"dst":1,"size":100,"start_time":0.5}\n'
        '{"flow_id":6,"src":1,"dst":0,"size":100,"start_time":0.1}\n')
    flows = load_jsonl(path)
    assert [f.flow_id for f in flows] == [6, 5]


@pytest.mark.parametrize("bad", [
    '{"src":0,"dst":1,"size":100}',                      # missing field
    '{"src":0,"dst":0,"size":100,"start_time":0}',       # self-pair
    '{"src":0,"dst":1,"size":0,"start_time":0}',         # zero size
    '{"src":0,"dst":1,"size":100,"start_time":-1}',      # negative time
    'not json at all',
])
def test_malformed_jsonl_rejected(tmp_path, bad):
    path = tmp_path / "bad.jsonl"
    path.write_text(bad + "\n")
    with pytest.raises(TraceFormatError):
        load_jsonl(path)


def test_duplicate_ids_rejected(tmp_path):
    path = tmp_path / "dup.jsonl"
    path.write_text(
        '{"flow_id":1,"src":0,"dst":1,"size":100,"start_time":0}\n'
        '{"flow_id":1,"src":1,"dst":0,"size":100,"start_time":0}\n')
    with pytest.raises(TraceFormatError):
        load_jsonl(path)


def test_endpoint_bounds_check(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text('{"src":0,"dst":99,"size":100,"start_time":0}\n')
    with pytest.raises(TraceFormatError):
        trace_scenario_flows(path, n_hosts=8)


def test_frozen_poisson_draw_replays_identically(tmp_path):
    """Freeze a generator draw to disk, replay it through the runner."""
    generated = flow_stream(all_to_all(range(8)), WEB_SEARCH, load=0.4,
                            link_rate=gbps(40), n_flows=15, n_senders=8,
                            size_cap=300_000, seed=3).materialize()
    path = tmp_path / "frozen.csv"
    save_trace(generated, path)
    fabric = sim_fabric(n_leaf=2, n_spine=2, hosts_per_leaf=4)

    def build_flows(topo):
        return trace_scenario_flows(path, topo.n_hosts)

    scenario = Scenario("frozen", fabric, build_flows)
    result = run(Dctcp(), scenario)
    assert result.completion_rate == 1.0
    assert_same(result.flows, generated)
