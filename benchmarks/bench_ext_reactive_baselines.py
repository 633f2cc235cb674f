"""Extension: the remaining Table-1 reactive/proactive baselines
(TCP-10, Halfback, ExpressPass, TIMELY) against PPT on the Fig-12
web-search scenario.

Not a paper figure — the paper's Table 1 classifies these schemes
qualitatively and cites prior measurements; this benchmark backs the
classification with numbers from our substrate:

* TCP-10 and Halfback fix only the *startup* phase, so they trail PPT
  (which also fills the queue-buildup phase and schedules flows);
* Halfback still beats TCP-10 for small flows (its pace-out is a
  first-RTT-only cousin of PPT's case-1 loop);
* ExpressPass wastes the first RTT waiting for credits;
* TIMELY and D2TCP converge over multiple RTTs without any scheduling;
* DCQCN starts at line rate (RDMA semantics) so its *overall* average is
  competitive, but without in-network priorities its small-flow tail is
  3x PPT's — exactly the "lack efficient flow scheduling" critique of
  appendix C.
"""

from conftest import by_scheme, run_figure
from repro.experiments.parallel import run_grid, scheme_grid
from repro.experiments.scenarios import SCHEMES, all_to_all_scenario
from repro.workloads.distributions import WEB_SEARCH

BASELINES = ("tcp10", "halfback", "expresspass", "timely", "d2tcp", "dcqcn",
             "ppt")


def _run_baselines():
    summaries = run_grid(scheme_grid(
        {name: SCHEMES[name] for name in BASELINES},
        lambda: all_to_all_scenario("ext-baselines", WEB_SEARCH, load=0.5,
                                    n_flows=150),
        [{}]), jobs=-1)
    return {"rows": [summary.row() for summary in summaries]}


def test_table1_reactive_baselines(benchmark):
    result = run_figure(benchmark, "Extension: Table 1 baselines vs PPT",
                        _run_baselines)
    rows = by_scheme(result["rows"])
    assert all(r["flows"] == 150 for r in rows.values())
    ppt = rows["ppt"]
    # PPT beats every converge-from-below baseline overall
    for other in ("tcp10", "halfback", "expresspass", "timely", "d2tcp"):
        assert ppt["overall_avg_ms"] < rows[other]["overall_avg_ms"], other
    # DCQCN's line-rate start makes its overall average competitive, but
    # scheduling-free transports lose the small-flow latency race
    for other in ("tcp10", "halfback", "expresspass", "timely", "d2tcp",
                  "dcqcn"):
        assert ppt["small_avg_ms"] < rows[other]["small_avg_ms"], other
        assert ppt["small_p99_ms"] < rows[other]["small_p99_ms"], other
    # Halfback's pace-out helps small flows relative to TCP-10
    assert rows["halfback"]["small_avg_ms"] < rows["tcp10"]["small_avg_ms"]
