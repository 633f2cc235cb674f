"""Extension: PPT's design as a building block for HPCC (appendix B).

The paper sketches this integration as an open direction: open an LCP
loop whenever HPCC's INT-estimated in-flight is below the BDP, and use
PPT's buffer-aware scheduling.  This benchmark runs our implementation
(:class:`repro.core.ppt_hpcc.PptHpcc`) against plain HPCC on the Fig-12
web-search scenario and checks the integration pays off, mirroring the
Fig-14 result for the Swift variant.
"""

from conftest import by_scheme, run_figure
from repro.experiments.parallel import run_grid, scheme_grid
from repro.experiments.scenarios import SCHEMES, all_to_all_scenario
from repro.workloads.distributions import WEB_SEARCH


def _run_pair():
    summaries = run_grid(scheme_grid(
        {name: SCHEMES[name] for name in ("hpcc", "ppt-hpcc")},
        lambda: all_to_all_scenario("ext-hpcc", WEB_SEARCH, load=0.5,
                                    n_flows=150),
        [{}]), jobs=-1)
    return {"rows": [summary.row() for summary in summaries]}


def test_ppt_over_hpcc(benchmark):
    result = run_figure(benchmark, "Extension: PPT over HPCC (appendix B)",
                        _run_pair)
    rows = by_scheme(result["rows"])
    assert all(r["flows"] == 150 for r in rows.values())
    base, variant = rows["hpcc"], rows["ppt-hpcc"]
    assert variant["overall_avg_ms"] < base["overall_avg_ms"]
    assert variant["small_p99_ms"] < base["small_p99_ms"]
