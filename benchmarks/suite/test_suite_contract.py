"""Contract test for the benchmark suite.  Run by explicit path (it is
not collected by the tier-1 suite and takes ~15 s):

    PYTHONPATH=src python -m pytest benchmarks/suite/test_suite_contract.py -q

Asserts the names this and every later issue refer to, the output
schema, zero failed flows and rep-to-rep fingerprint equality, on
``run.py --quick --reps 2`` (1/10 size).
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
RUN = [sys.executable, str(SUITE / "run.py")]

WORKLOADS = ["ppt-websearch-leafspine", "ppt-websearch-fullsize",
             "homa-incast", "memcached-churn", "hybrid-mixed-soak"]
END_TO_END = ["wall_s", "sim_goodput_mb_per_s", "flows_per_s",
              "peak_rss_mb", "setup_s"]
PER_LAYER = [
    "engine.self_s", "engine.events", "engine.events_per_pkt",
    "engine.events_per_s", "engine.peak_pending", "engine.heap_ns_per_event",
    "link.self_s", "link.pkts_sent", "link.busy_frac", "link.port_ns_per_pkt",
    "queues.self_s", "queues.offered", "queues.dropped", "queues.marked",
    "queues.trimmed", "queues.mux_ns_per_pkt",
    "switch.self_s", "switch.pkts_forwarded", "switch.forward_ns_per_pkt",
    "host.self_s",
    "window.self_s", "window.pkts_transmitted", "window.retransmits",
    "window.rtos", "window.acks",
    "lcp.self_s", "lcp.lp_pkts_sent", "lcp.loops_opened", "lcp.lp_share",
    "homa.self_s",
    "streams.self_s", "streams.flows_generated", "streams.gen_flows_per_s",
    "runner.self_s", "runner.harvest_s", "setup.self_s",
    "hybrid.self_s", "hybrid.flows_abstracted", "hybrid.flows_demoted",
    "hybrid.epochs", "hybrid.abstract_byte_share",
    "sim.fct_avg_ms", "sim.small_p99_ms", "sim.large_avg_ms",
    "sim.sim_seconds", "sim.fingerprint",
    "trace.overhead_x", "trace.other_self_s", "trace.total_self_s",
    "checkpoint.write_mb_per_s", "checkpoint.restore_mb_per_s",
    "obs.observe_overhead_frac", "validate.audit_overhead_frac",
]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_meets_the_contract(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["benchmarks/suite"]
    assert spec["command"] == ["python3", "benchmarks/suite/run.py"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert [w["name"] for w in spec["workloads"]] == WORKLOADS
    assert [m["name"] for m in spec["end_to_end"]] == END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == PER_LAYER
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
        assert "\n" not in w["why"]
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    names = WORKLOADS + END_TO_END + PER_LAYER
    assert len(set(names)) == len(names)
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"])
        assert m["better"] in ("lower", "higher")
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_workload_table_matches_benchmark_json(spec):
    sys.path[:0] = [str(ROOT / "src"), str(SUITE)]
    try:
        from workloads import WORKLOADS as table
    finally:
        del sys.path[:2]
    assert list(table) == [w["name"] for w in spec["workloads"]]


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    out = tmp_path_factory.mktemp("suite") / "quick.json"
    done = subprocess.run(RUN + ["--quick", "--reps", "2", "--out", str(out)],
                          stdout=subprocess.PIPE, text=True, timeout=300)
    assert done.returncode == 0, done.stdout
    return json.loads(out.read_text()), done.stdout


def test_quick_covers_every_workload_and_metric(quick, spec):
    doc, stdout = quick
    assert [r["workload"] for r in doc["runs"]] == WORKLOADS
    for run in doc["runs"]:
        result = run["result"]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert list(result["metrics"]) == END_TO_END
        for m in spec["end_to_end"]:
            got = result["metrics"][m["name"]]
            assert got["unit"] == m["unit"] and got["value"] > 0
            assert m["name"] in stdout
    assert doc["meta"]["benchmark"] == spec


def test_quick_has_no_failed_flows_and_reps_agree(quick):
    doc, _ = quick
    for run in doc["runs"]:
        result, detail = run["result"], run["detail"]
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        # two reps of one seeded simulation: identical per-flow FCTs
        assert len(detail["rep_scaled_s"]) == 2
        assert detail["notes"] == []
        assert re.fullmatch(r"[0-9a-f]{64}", detail["fingerprint"])


def test_contract_invocation_prints_result_last(spec):
    done = subprocess.run(
        RUN + ["--quick", "--workload", "homa-incast", "--seed", "3",
               "--seconds", "1", "--trace", "0"],
        stdout=subprocess.PIPE, text=True, timeout=120)
    assert done.returncode == 0, done.stdout
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and list(last["metrics"]) == END_TO_END


def test_unknown_workload_is_refused():
    done = subprocess.run(RUN + ["--workload", "nope"], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=60)
    assert done.returncode == 2 and "unknown workload" in done.stderr
