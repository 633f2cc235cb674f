"""Hybrid flow-level fast path (:mod:`repro.sim.hybrid`).

What is on trial:

* **Waterfilling** — unit cases plus a hypothesis property: rates are
  feasible (no port over capacity) and max-min fair (each flow's rate
  is maximal among the flows crossing its saturated bottleneck).
* **The off-switch contract** — ``hybrid=None``, a disabled config, and
  a config whose threshold refuses every flow are all bit-identical to
  the plain packet tree.
* **The equivalence gate** — hybrid FCT distributions vs the packet
  oracle across {dctcp, ppt, homa} x {star, leaf-spine}, gated on
  per-bucket mean/p99 relative difference and KS distance at the
  tolerances documented in ``docs/hybrid.md``.
* **Demotion** — an abstract flow whose path a packet flow joins is
  handed back to the packet model, and the original flow object ends up
  with the true finish time.
* **Checkpoint/resume** — a snapshot taken mid-epoch (abstract flows in
  flight) resumes bit-identically.
* **The perf ratchet** — clear messages for malformed/missing bench
  rows, and the hybrid row gating on flow-hours per wall-second.
"""

import importlib.util
import json
import shutil
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import SCHEME_FACTORIES
from repro.experiments.runner import Scenario, run
from repro.experiments.scenarios import (
    all_to_all_scenario,
    sim_config,
    sim_fabric,
    star_fabric,
)
from repro.resilience import load_checkpoint
from repro.sim.hybrid import HybridConfig, HybridController, waterfill
from repro.transport.base import Flow
from repro.transport.dctcp import Dctcp
from repro.units import gbps
from repro.validate.equivalence import (
    compare_fct_distributions,
    ks_distance,
)
from repro.workloads.distributions import WEB_SEARCH

BENCHMARKS_DIR = Path(__file__).resolve().parent.parent / "benchmarks"


# -- waterfilling ----------------------------------------------------------


@pytest.mark.parametrize("bad", [
    dict(max_epoch=0.0), dict(max_epoch=-1.0), dict(max_epoch=float("nan")),
    dict(size_threshold=-1),
])
def test_hybrid_config_refuses_bad_values(bad):
    """``max_epoch=0`` used to re-arm the epoch at ``now`` forever, and a
    negative one scheduled into the past."""
    with pytest.raises(ValueError, match="hybrid"):
        HybridConfig(**bad)


def test_waterfill_single_link_equal_shares():
    rates, bottlenecks = waterfill([[0], [0], [0]], [30.0])
    assert rates == [10.0, 10.0, 10.0]
    assert bottlenecks == [0, 0, 0]


def test_waterfill_distinct_bottlenecks():
    # flow 0 crosses the thin link (cap 2); flows 1-2 share the fat one.
    # Classic max-min: flow 0 pinned at 2, the others split what their
    # own bottleneck leaves them.
    rates, bottlenecks = waterfill([[0, 1], [1], [1]], [2.0, 12.0])
    assert rates[0] == pytest.approx(2.0)
    assert rates[1] == pytest.approx(5.0)
    assert rates[2] == pytest.approx(5.0)
    assert bottlenecks[0] == 0
    assert bottlenecks[1] == bottlenecks[2] == 1


def test_waterfill_empty_path_stays_zero():
    rates, bottlenecks = waterfill([[], [0]], [8.0])
    assert rates == [0.0, 8.0]
    assert bottlenecks == [None, 0]


def test_waterfill_zero_capacity():
    rates, _ = waterfill([[0], [0, 1]], [0.0, 5.0])
    assert rates[0] == 0.0
    assert rates[1] == 0.0  # pinned by the dead port


@st.composite
def _waterfill_case(draw):
    n_ports = draw(st.integers(min_value=1, max_value=5))
    capacities = draw(st.lists(
        st.floats(min_value=0.1, max_value=100.0,
                  allow_nan=False, allow_infinity=False),
        min_size=n_ports, max_size=n_ports))
    n_flows = draw(st.integers(min_value=1, max_value=6))
    paths = draw(st.lists(
        st.lists(st.integers(min_value=0, max_value=n_ports - 1),
                 unique=True, min_size=1, max_size=n_ports),
        min_size=n_flows, max_size=n_flows))
    return paths, capacities


@settings(max_examples=200, deadline=None)
@given(case=_waterfill_case())
def test_waterfill_feasible_and_max_min_fair(case):
    paths, capacities = case
    rates, bottlenecks = waterfill(paths, capacities)

    # feasibility: no port is over capacity
    for j, cap in enumerate(capacities):
        total = sum(r for r, p in zip(rates, paths) if j in p)
        assert total <= cap * (1.0 + 1e-6) + 1e-9, (
            f"port {j} oversubscribed: {total} > {cap}")

    # max-min certificate: every flow's bottleneck is saturated, and no
    # flow crossing that bottleneck does better than the frozen flow
    for i, (rate, path) in enumerate(zip(rates, paths)):
        bn = bottlenecks[i]
        assert bn is not None and bn in path
        crossing = [rates[k] for k, p in enumerate(paths) if bn in p]
        assert sum(crossing) >= capacities[bn] * (1.0 - 1e-6) - 1e-9, (
            f"flow {i}'s bottleneck {bn} is not saturated")
        assert rate >= max(crossing) - 1e-6 * (max(crossing) + 1.0), (
            f"flow {i} rate {rate} is not maximal at its bottleneck "
            f"(max crossing rate {max(crossing)})")


# -- scenarios -------------------------------------------------------------


FABRICS = {
    "star": lambda: star_fabric(6),
    "leaf-spine": lambda: sim_fabric(n_leaf=2, n_spine=2, hosts_per_leaf=4),
}


def mixed_scenario(fabric_key, hybrid, *, load=0.25, n_flows=60, seed=42):
    return all_to_all_scenario(
        f"hybrid-eq-{fabric_key}", WEB_SEARCH, load=load, n_flows=n_flows,
        fabric=FABRICS[fabric_key](), seed=seed, hybrid=hybrid)


def bulk_scenario(hybrid, *, n_flows=24, size=4_000_000):
    """All-bulk traffic on a slow star: every flow clears the default
    size threshold and, in hybrid mode, the whole run is analytic."""
    fabric = star_fabric(6, rate=gbps(0.1))

    def build_flows(topo):
        hosts = topo.host_ids()
        n = len(hosts)
        return [Flow(flow_id=i, src=hosts[i % n],
                     dst=hosts[(i + 1 + i // n) % n],
                     size=size, start_time=0.001 * i)
                for i in range(n_flows)]

    return Scenario("hybrid-bulk", fabric, build_flows,
                    config=sim_config(min_rto=0.05), max_time=120.0,
                    hybrid=hybrid)


def fct_fingerprint(result):
    # repr() captures every bit of the float — equality is bit-identity
    return [(f.flow_id, f.completed, repr(f.fct)) for f in result.flows]


# -- off-switch bit-identity ----------------------------------------------


def test_hybrid_all_refused_is_bit_identical():
    """A threshold above every flow size admits nothing to the abstract
    set; the controller must then be pure bookkeeping — same events,
    same FCT bits as the plain tree."""
    plain = run(Dctcp(), mixed_scenario("star", None))
    refused = run(Dctcp(), mixed_scenario(
        "star", HybridConfig(size_threshold=10**12)))
    assert fct_fingerprint(refused) == fct_fingerprint(plain)
    assert refused.wall_events == plain.wall_events
    ctl = refused.ctx.extra["hybrid"]
    assert ctl.flows_abstracted == 0
    assert ctl.epochs == 0


# -- the equivalence gate --------------------------------------------------

# The gated tolerance (see docs/hybrid.md): the abstraction deliberately
# skips slow-start and per-packet queueing noise, so bucket summaries
# may drift tens of percent on the microsecond-scale small bucket while
# the distribution as a whole (KS) stays close.
EQ_MEAN_TOL = 0.45
EQ_P99_TOL = 0.60
EQ_KS_BOUND = 0.20


@pytest.mark.parametrize("scheme", ["dctcp", "ppt", "homa"])
@pytest.mark.parametrize("fabric_key", sorted(FABRICS))
def test_fct_equivalence_gate(scheme, fabric_key):
    factory = SCHEME_FACTORIES[scheme]
    oracle = run(factory(), mixed_scenario(fabric_key, None))
    hybrid = run(factory(), mixed_scenario(
        fabric_key, HybridConfig(size_threshold=200_000)))
    assert oracle.completed == len(oracle.flows)
    assert hybrid.completed == len(hybrid.flows)
    report = compare_fct_distributions(
        oracle.flows, hybrid.flows,
        mean_tol=EQ_MEAN_TOL, p99_tol=EQ_P99_TOL, ks_bound=EQ_KS_BOUND)
    assert report.ok, report.describe()


def test_abstract_only_accuracy():
    """With every flow abstract the analytic rates ARE the model; the
    remaining error against the packet oracle is slow-start/AIMD ramp,
    which is bounded much tighter than the mixed-traffic gate."""
    oracle = run(Dctcp(), bulk_scenario(None))
    hybrid = run(Dctcp(), bulk_scenario(HybridConfig()))
    assert oracle.completed == len(oracle.flows)
    assert hybrid.completed == len(hybrid.flows)
    ctl = hybrid.ctx.extra["hybrid"]
    assert ctl.flows_abstracted == len(hybrid.flows)
    assert ctl.flows_demoted == 0
    report = compare_fct_distributions(
        oracle.flows, hybrid.flows,
        mean_tol=0.20, p99_tol=0.30, ks_bound=1.0)
    assert report.ok, report.describe()
    # and it must actually be cheap: the analytic run does the same
    # simulated work in a tiny fraction of the events
    assert hybrid.wall_events * 100 < oracle.wall_events


def test_ks_distance_basics():
    assert ks_distance([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0
    assert ks_distance([0.0, 0.1], [10.0, 11.0]) == 1.0
    assert ks_distance([], [1.0]) == 1.0
    assert 0.0 < ks_distance([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.5, 4.0]) < 1.0


# -- demotion --------------------------------------------------------------


def demotion_scenario(hybrid):
    """One bulk flow goes abstract at t=0; a burst of small flows from
    the same sender joins at t=10ms and must force it back to packets."""
    fabric = star_fabric(4, rate=gbps(0.1))

    def build_flows(topo):
        hosts = topo.host_ids()
        flows = [Flow(flow_id=0, src=hosts[0], dst=hosts[1],
                      size=5_000_000, start_time=0.0)]
        for i in range(1, 9):
            flows.append(Flow(flow_id=i, src=hosts[0], dst=hosts[2],
                              size=20_000, start_time=0.01 + 0.001 * i))
        return flows

    return Scenario("hybrid-demote", fabric, build_flows,
                    config=sim_config(min_rto=0.05), max_time=60.0,
                    hybrid=hybrid)


def test_demotion_on_shared_port():
    result = run(Dctcp(), demotion_scenario(HybridConfig(
        size_threshold=1_000_000)), validate=True)
    assert result.completed == len(result.flows)
    ctl = result.ctx.extra["hybrid"]
    assert ctl.flows_abstracted == 1
    assert ctl.flows_demoted == 1
    # the ORIGINAL flow object carries the tail's true finish time
    bulk = result.flows[0]
    assert bulk.completed and bulk.fct is not None and bulk.fct > 0.0
    # the tail's retired sender wrote into the bulk flow's table row
    assert result.table.pkts_sent[0] >= result.table.pkts_received[0] > 0
    assert result.table.acks[0] > 0
    # demotion banked its progress into the conservation ledger, which
    # the auditor checked every slice
    assert result.validation is not None and result.validation.ok
    assert ctl.demoted_wire_bytes > 0.0


def test_hybrid_telemetry_counters():
    result = run(Dctcp(), demotion_scenario(HybridConfig(
        size_threshold=1_000_000)), observe=True)
    summary = result.telemetry.summary()
    assert summary.hybrid_epochs > 0
    assert summary.hybrid_demotions == 1
    assert "hybrid epochs" in summary.describe()


def test_hybrid_audited_run_is_bit_identical():
    bare = run(Dctcp(), bulk_scenario(HybridConfig()))
    audited = run(Dctcp(), bulk_scenario(HybridConfig()), validate=True)
    assert fct_fingerprint(audited) == fct_fingerprint(bare)
    assert audited.wall_events == bare.wall_events
    assert audited.validation is not None and audited.validation.ok


# -- checkpoint/resume -----------------------------------------------------


def test_hybrid_resume_mid_epoch_bit_identical(tmp_path, monkeypatch):
    import repro.experiments.runner as runner_mod

    path = str(tmp_path / "run.ckpt")
    first = str(tmp_path / "first.ckpt")
    real_save = runner_mod.save_checkpoint
    kept = []

    def keep_first(state, p):
        header = real_save(state, p)
        if not kept:
            shutil.copy(p, first)
            kept.append(header)
        return header

    straight = run(Dctcp(), bulk_scenario(HybridConfig()))
    monkeypatch.setattr(runner_mod, "save_checkpoint", keep_first)
    checked = run(Dctcp(), bulk_scenario(HybridConfig()),
                  checkpoint_every=0.0, checkpoint_path=path)
    assert fct_fingerprint(checked) == fct_fingerprint(straight)
    assert checked.wall_events == straight.wall_events
    assert kept, "bulk run spans several slices; a snapshot must land"

    state = load_checkpoint(first)
    controller = state.ctx.extra["hybrid"]
    assert isinstance(controller, HybridController)
    # mid-epoch: abstract flows in flight, the epoch event armed
    assert controller.abstract
    assert controller.epoch_event is not None
    resumed = run(resume=state)
    assert fct_fingerprint(resumed) == fct_fingerprint(straight)
    assert resumed.wall_events == straight.wall_events


# -- the perf ratchet ------------------------------------------------------


def _load_ratchet():
    spec = importlib.util.spec_from_file_location(
        "perf_ratchet", BENCHMARKS_DIR / "perf_ratchet.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_ratchet_gates_hybrid_on_flow_hours():
    ratchet = _load_ratchet()
    assert "hybrid-soak" in ratchet.DEFAULT_BENCHES
    assert ratchet.GATED_METRICS["hybrid-soak"] == "flow_hours_per_sec"


def test_ratchet_missing_row_message(tmp_path):
    ratchet = _load_ratchet()
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"rows": [
        {"bench": "dctcp-incast", "events_per_sec": 1000.0}]}))
    ok, message = ratchet.check(str(good), str(good), bench="hybrid-soak")
    assert not ok
    assert "has no 'hybrid-soak' row" in message
    assert "dctcp-incast" in message  # tells you what IS there


def test_ratchet_malformed_payload_message(tmp_path):
    ratchet = _load_ratchet()
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"benches": []}))
    with pytest.raises(ratchet.RatchetError, match="'rows'"):
        ratchet.rows_by_bench(str(bad))
    bad.write_text("not json at all")
    with pytest.raises(ratchet.RatchetError, match="not valid JSON"):
        ratchet.rows_by_bench(str(bad))
    bad.write_text(json.dumps({"rows": [{"events_per_sec": 1.0}]}))
    with pytest.raises(ratchet.RatchetError, match="no 'bench' name"):
        ratchet.rows_by_bench(str(bad))


def test_ratchet_missing_metric_message(tmp_path):
    ratchet = _load_ratchet()
    base = tmp_path / "base.json"
    base.write_text(json.dumps({"rows": [
        {"bench": "hybrid-soak", "events_per_sec": 5.0}]}))
    with pytest.raises(ratchet.RatchetError,
                       match="no 'flow_hours_per_sec' metric"):
        ratchet.check(str(base), str(base), bench="hybrid-soak")


def test_ratchet_passes_against_itself(tmp_path):
    ratchet = _load_ratchet()
    payload = tmp_path / "rows.json"
    payload.write_text(json.dumps({"rows": [
        {"bench": "dctcp-incast", "events_per_sec": 1000.0},
        {"bench": "leaf-spine", "events_per_sec": 900.0},
        {"bench": "homa-incast", "events_per_sec": 700.0},
        {"bench": "hybrid-soak", "events_per_sec": 10.0,
         "flow_hours_per_sec": 3.0},
    ]}))
    assert ratchet.main(["--baseline", str(payload),
                         "--fresh", str(payload)]) == 0
