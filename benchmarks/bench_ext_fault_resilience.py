"""Extension: transport resilience to a mid-run link flap.

Not a paper figure — the paper evaluates PPT on healthy fabrics.  This
benchmark injects the classic datacenter failure mode (a flapping
leaf-to-spine uplink) into the §6.2-shaped scaled fabric and compares
how PPT, DCTCP and Homa ride it out under an *identical* deterministic
fault plan: leaf0's uplinks to both spines flap twice while the
web-search workload is in flight, so every cross-leaf flow from leaf0
loses its path repeatedly for a blackout much shorter than the RTO cap.

Expectation: all three transports recover (no stalls, every flow
completes) — the window schemes via RTO backoff + fast retransmit,
Homa via its timeout-driven resend — and the health layer reports the
fault windows and the recovery work (drops, retransmits) per scheme.
"""

from conftest import by_scheme, run_figure
from repro.experiments.parallel import run_grid, scheme_grid
from repro.experiments.scenarios import SCHEMES, all_to_all_scenario
from repro.faults import FaultPlan, LinkFlap
from repro.workloads.distributions import WEB_SEARCH

N_FLOWS = 150

# Both of leaf0's uplinks flap together: 0.5ms down, 0.5ms up, twice,
# starting while the workload's first wave is in flight (traffic spans
# roughly 0-2.7ms at this load).
FLAP_PLAN = FaultPlan([
    LinkFlap("leaf0->spine*", start=0.0003, down_time=0.0005,
             up_time=0.0005, cycles=2),
], seed=1)


def _scenario(faults):
    return all_to_all_scenario("ext-flap" if faults else "ext-flap-baseline",
                               WEB_SEARCH, load=0.5, n_flows=N_FLOWS,
                               faults=faults)


def _run_fault_resilience():
    schemes = {name: SCHEMES[name] for name in ("ppt", "dctcp", "homa")}
    # variants outer: every scheme healthy, then every scheme faulty
    summaries = run_grid(scheme_grid(
        schemes, _scenario, [{"faults": None}, {"faults": FLAP_PLAN}]),
        jobs=-1)
    rows = []
    for base, faulty in zip(summaries, summaries[len(schemes):]):
        h = faulty.health
        rows.append({
            "scheme": faulty.scheme,
            "completed": f"{h.completed}/{h.n_flows}",
            "stalled": h.stalled,
            "fault_drops": h.fault_drops,
            "rtx": h.retransmits_total,
            "rtos": h.rtos_total,
            **faulty.stats.row(),
            "healthy_avg_ms": base.stats.row()["overall_avg_ms"],
            "_ok": h.ok,
            "_completion_rate": h.completion_rate,
            "_windows": len(h.fault_windows),
        })
    return {"rows": rows}


def test_fault_resilience(benchmark):
    result = run_figure(benchmark,
                        "Extension: link-flap resilience (PPT/DCTCP/Homa)",
                        _run_fault_resilience)
    rows = by_scheme(result["rows"])
    assert set(rows) == {"ppt", "dctcp", "homa"}
    for name, row in rows.items():
        # the flap really hit the fabric...
        assert row["_windows"] == 2, name  # one window per flapped uplink
        assert row["fault_drops"] > 0, name
        # ...and every transport rode it out: blackouts far below the RTO
        # cap must never stall a run or strand a flow
        assert row["_ok"], name
        assert row["_completion_rate"] == 1.0, name
        # recovery is visible as extra work relative to the healthy run
        assert row["overall_avg_ms"] >= row["healthy_avg_ms"], name
    # the window schemes recover through the counted retransmit paths
    for name in ("ppt", "dctcp"):
        assert rows[name]["rtx"] + rows[name]["rtos"] > 0, name
