"""Fig. 3 — filling the window gap to different fractions of MW.

Paper: filling to 0.5x MW wastes capacity (+56% FCT); filling beyond MW
bursts and loses packets (up to 6x FCT); 1x MW is the choice.

Shape asserted: the overfill side — FCT grows monotonically beyond 1x MW
on plain tail-drop buffers.  Known deviation: the underfill penalty is
muted at our scale because our DCTCP leaves less capacity unused than
the paper's (see EXPERIMENTS.md).
"""

import pytest

from conftest import run_figure
from repro.experiments.figures import fig03_fill_factor


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 6: 1.5x MW 0.1999 ms !> 1.05 x (1x MW 0.2028 ms)"))
def test_fig03_overfill_hurts(benchmark):
    result = run_figure(benchmark, "Fig 3: fill-to-MW sweep",
                        fig03_fill_factor, factors=(0.5, 1.0, 1.5))
    fct = {row["fill_factor"]: row["overall_avg_ms"]
           for row in result["rows"]}
    assert fct[1.5] > fct[1.0] * 1.05   # overfilling bursts and loses
    assert fct[1.5] > fct[0.5] * 1.10   # and is the worst configuration
