"""§6.3 (sensitivity remark): "PPT has performance benefits under a wide
range of lambda for the low-priority queue."

Sweeps the LCP marking threshold K_low across a 4x range around the
paper's default and checks PPT keeps beating DCTCP on every metric that
matters at each setting — the benefit does not hinge on a tuned K_low.
"""

from conftest import run_figure
from repro.experiments.parallel import run_grid, scheme_grid
from repro.experiments.scenarios import (
    SCHEMES,
    all_to_all_scenario,
    sim_fabric,
    sim_qcfg,
)
from repro.workloads.distributions import WEB_SEARCH

K_LOW_VALUES = (25_000, 50_000, 86_000, 110_000)  # paper default: 86KB


def _scenario(k_low):
    fabric = None  # "n/a": the default fabric, at the paper's K_low
    if k_low != "n/a":
        fabric = sim_fabric(qcfg=sim_qcfg(k_low=k_low))
    return all_to_all_scenario(f"klow-{k_low}", WEB_SEARCH, load=0.5,
                               n_flows=150, fabric=fabric)


def _run_sweep():
    # the DCTCP reference doesn't depend on K_low; run it once
    tasks = scheme_grid({"dctcp": SCHEMES["dctcp"]}, _scenario,
                        [{"k_low": "n/a"}])
    tasks += scheme_grid({"ppt": SCHEMES["ppt"]}, _scenario,
                         [{"k_low": k_low} for k_low in K_LOW_VALUES])
    return {"rows": [summary.row()
                     for summary in run_grid(tasks, jobs=-1)]}


def test_lcp_threshold_robustness(benchmark):
    result = run_figure(benchmark, "§6.3: K_low robustness sweep",
                        _run_sweep)
    dctcp = next(r for r in result["rows"] if r["scheme"] == "dctcp")
    ppt_rows = [r for r in result["rows"] if r["scheme"] == "ppt"]
    assert len(ppt_rows) == len(K_LOW_VALUES)
    for row in ppt_rows:
        assert row["overall_avg_ms"] < dctcp["overall_avg_ms"], row["k_low"]
        assert row["small_avg_ms"] < dctcp["small_avg_ms"], row["k_low"]
        assert row["small_p99_ms"] < dctcp["small_p99_ms"], row["k_low"]
    # and the spread across thresholds is modest (robustness)
    overall = [r["overall_avg_ms"] for r in ppt_rows]
    assert max(overall) <= min(overall) * 1.25
