"""Fig. 23 — overall average FCT under N-to-1 incast (N swept).

Paper: under heavy incast PPT gracefully degrades to DCTCP (little spare
bandwidth for the LCP loop), beats Homa and Aeolus (whose first-RTT
blasts burst the shared downlink), and is comparable to NDP (trimming
keeps queues short).  RC3 is excluded — it cannot sustain heavy incast.
"""

import pytest

from conftest import run_figure
from repro.experiments.figures import fig23_incast_sweep


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 6: N=31 PPT 0.3197 ms > 1.2 x NDP 0.2657 ms"))
def test_fig23_incast_sweep(benchmark):
    result = run_figure(benchmark, "Fig 23: incast ratio sweep",
                        fig23_incast_sweep)
    data = {(r["scheme"], r["incast_ratio"]): r["overall_avg_ms"]
            for r in result["rows"]}
    ratios = sorted({r["incast_ratio"] for r in result["rows"]})
    assert not any(s == "rc3" for s, _ in data)
    for n in ratios:
        # PPT tracks DCTCP (falls back when there is no spare bandwidth)
        assert data[("ppt", n)] <= data[("dctcp", n)] * 1.45, f"N={n}"
    # at the heaviest fan-in PPT is comparable to NDP (the paper's
    # "similar performance with NDP") and no longer pays an LCP tax
    # relative to DCTCP
    heaviest = ratios[-1]
    assert data[("ppt", heaviest)] <= data[("ndp", heaviest)] * 1.2
    assert data[("ppt", heaviest)] <= data[("dctcp", heaviest)]
