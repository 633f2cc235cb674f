"""Fast smoke tests for the per-figure drivers, and their golden rows.

The benchmarks run the figures at their calibrated default scale and
assert the paper's shapes; these tests only verify each driver executes
end-to-end at a *tiny* scale and returns well-formed rows, so a broken
driver fails in the unit suite (seconds), not just the benchmark suite
(minutes).

Every smoke call also checks its rows against
``golden_figure_rows.json``, recorded before the refactor that added it
touched any source: each number a driver printed then (``repr()`` of
the float, ``None`` for an empty small/large bucket) must come back to
the bit, however the cells are executed.  A row may grow columns; it
may not lose or change one.  The file's ``series`` entry pins the
utilisation series of the drivers that return one (figs 1 and 20) the
same way, ``repr()`` of every sample.  A deliberate behaviour change
re-records the file in the same commit and says why::

    PYTHONPATH=src python tests/test_figures_smoke.py
"""

import json
import math
from pathlib import Path

import pytest

from repro.cli import FIGURES
from repro.experiments import figures, runner, workers

GOLDEN = Path(__file__).with_name("golden_figure_rows.json")

# one call per driver, keyed like ``cli.FIGURES``, at the smoke scale
SMOKE_CALLS = {
    "fig01": lambda: figures.fig01_link_utilization(n_flows=20),
    "fig02": lambda: figures.fig02_hypothetical(n_flows=20),
    "fig03": lambda: figures.fig03_fill_factor(factors=(1.0,), n_flows=15),
    "fig08": lambda: figures.fig08_09_testbed_15to15(
        "web-search", loads=(0.4,), n_flows=15),
    "fig10": lambda: figures.fig10_11_testbed_14to1("data-mining",
                                                    n_flows=15),
    "fig12": lambda: figures.fig12_13_largescale("web-search", n_flows=20),
    "fig14": lambda: figures.fig14_delay_based(n_flows=15),
    "fig15": lambda: figures.fig15_18_ablation(n_flows=15),
    "fig19": lambda: figures.fig19_cpu_overhead(loads=(0.4,), n_flows=15),
    "fig20": lambda: figures.fig20_link_utilization(n_flows=20),
    "fig21": lambda: figures.fig21_memcached(n_flows=400),
    "fig22": lambda: figures.fig22_100_400g(n_flows=20),
    "fig23": lambda: figures.fig23_incast_sweep(ratios=(4,), n_flows=20),
    "fig24": lambda: figures.fig24_rc3_lp_buffer(fractions=(0.5,),
                                                 n_flows=20),
    "fig25": lambda: figures.fig25_pias_hpcc(n_flows=20),
    "fig26": lambda: figures.fig26_non_oversubscribed(n_flows=20),
    "fig27": lambda: figures.fig27_send_buffer(sizes=(128_000,), n_flows=20),
    "fig28": lambda: figures.fig28_29_buffer_efficiency(fractions=(0.6,),
                                                        n_flows=20),
    "sec41": lambda: figures.sec41_identification_accuracy(n_messages=500),
    "sec63": lambda: figures.sec63_lcp_threshold(k_lows=(50_000,),
                                                 n_flows=20),
    "ext-baselines": lambda: figures.ext_baselines(n_flows=15),
    "ext-buffer-model": lambda: figures.ext_buffer_model(n_flows=15),
}


def _cell(value):
    """A row value as the golden file holds it: floats by ``repr()``,
    an empty bucket (``nan`` at the recording commit, ``"n=0"`` once
    ``FctStats.row`` renders every row) as ``None``."""
    if value == "n=0" or (isinstance(value, float) and math.isnan(value)):
        return None
    return repr(value) if isinstance(value, float) else value


def _series(result):
    """A driver's data series as the golden file holds them."""
    return {key: [repr(value) for value in values]
            for key, values in result["series"].items()}


@pytest.fixture
def harvests(monkeypatch):
    """Every run's result as it is harvested; grids run serially in
    this process, so none is missed in a worker."""
    harvested = []
    harvest = runner._harvest

    def counted(*args):
        harvested.append(harvest(*args))
        return harvested[-1]

    monkeypatch.setattr(runner, "_harvest", counted)
    monkeypatch.setattr(workers, "default_jobs", lambda: 1)
    return harvested


def smoke(name):
    """Run one driver at smoke scale and hold its rows (and its series,
    where one is pinned) to the golden file, column by recorded column."""
    result = SMOKE_CALLS[name]()
    recorded = json.loads(GOLDEN.read_text())
    golden = recorded[name]
    rows = result["rows"]
    assert len(rows) == len(golden), name
    for row, expected in zip(rows, golden):
        assert {key: _cell(row[key]) for key in expected} == expected, name
    if name in recorded["series"]:
        assert _series(result) == recorded["series"][name], name
    return result


def assert_rows(result, required_keys):
    assert result["rows"], "driver returned no rows"
    for row in result["rows"]:
        for key in required_keys:
            assert key in row, f"missing column {key}"
            value = row[key]
            if isinstance(value, float):
                assert not math.isnan(value) or key.startswith("large"), key


def test_golden_file_covers_every_driver():
    recorded = json.loads(GOLDEN.read_text())
    assert sorted(set(recorded) - {"series"}) == sorted(SMOKE_CALLS) \
        == sorted(FIGURES)
    assert sorted(recorded["series"]) == ["fig01", "fig20"]


def test_fig01_smoke():
    result = smoke("fig01")
    assert_rows(result, ["scheme", "avg_utilization"])
    assert len(result["series"]["dctcp"]) > 0


@pytest.mark.parametrize("call, needed", [
    pytest.param(lambda: figures.fig01_link_utilization(n_flows=4), 60,
                 id="fig01-4"),
    pytest.param(lambda: figures.fig01_link_utilization(n_flows=12), 60,
                 id="fig01-12"),
    pytest.param(lambda: figures.fig20_link_utilization(n_flows=4), 60,
                 id="fig20-4"),
    pytest.param(lambda: FIGURES["fig28"](fractions=(0.6,), n_flows=2), 6,
                 id="fig28-2"),
])
def test_too_short_a_run_for_the_sample_window_is_refused(call, needed):
    """A run too short to fill a probe figure's sample window (warm-up
    included) is an error naming both counts, not a short or empty
    average."""
    with pytest.raises(ValueError, match=f"samples, the window needs {needed}"):
        call()


def test_fig02_smoke():
    result = smoke("fig02")
    assert_rows(result, ["scheme", "overall_avg_ms"])
    assert len(result["rows"]) == 4


def test_fig03_smoke():
    result = smoke("fig03")
    assert_rows(result, ["fill_factor", "overall_avg_ms"])


def test_fig08_smoke():
    result = smoke("fig08")
    assert_rows(result, ["scheme", "overall_avg_ms", "load"])
    assert len(result["rows"]) == 4


def test_fig10_smoke():
    result = smoke("fig10")
    assert_rows(result, ["scheme", "overall_avg_ms"])


def test_fig12_smoke():
    result = smoke("fig12")
    assert_rows(result, ["scheme", "overall_avg_ms", "small_p99_ms"])
    assert len(result["rows"]) == 6


def test_fig14_smoke():
    result = smoke("fig14")
    names = {row["scheme"] for row in result["rows"]}
    assert names == {"swift", "ppt-swift"}


def test_fig15_18_smoke(harvests):
    """Figs 15-18 are one grid: PPT and its four ablations, one run
    each."""
    result = smoke("fig15")
    assert [row["scheme"] for row in result["rows"]] == [
        "ppt", "ppt-noecn", "ppt-noewd", "ppt-nosched", "ppt-noident"]
    assert len(harvests) == 5


def test_fig19_smoke():
    result = smoke("fig19")
    assert_rows(result, ["load", "dctcp_cpu_pct", "ppt_cpu_pct", "gap_pct"])


def test_fig20_smoke():
    result = smoke("fig20")
    assert_rows(result, ["scheme", "avg_utilization", "min_utilization"])
    assert set(result["series"]) == {"dctcp", "hypothetical", "ppt"}


def test_fig21_smoke():
    result = smoke("fig21")
    assert len(result["rows"]) == 6


@pytest.mark.parametrize("name", ["fig22", "fig26"])
def test_fig22_26_smoke(name):
    result = smoke(name)
    assert_rows(result, ["scheme", "overall_avg_ms", "small_p99_ms"])
    assert len(result["rows"]) == 6


def test_large_scale_figures_name_their_own_scenarios(monkeypatch):
    """Figs 22 and 26 run Fig 12's six schemes on other fabrics, under
    their own scenario names (they once ran as ``fig12-web-search``),
    and Fig 12 draws its flows from the seed it is given (7 by
    default)."""
    built = []

    def scenario(name, _cdf, **kwargs):
        built.append((name, kwargs["seed"]))

    monkeypatch.setattr(figures, "all_to_all_scenario", scenario)
    monkeypatch.setattr(figures, "_fct_table",
                        lambda _schemes, scenario_factory: scenario_factory())
    figures.fig12_13_largescale("data-mining")
    figures.fig12_13_largescale(seed=23)
    figures.fig22_100_400g()
    figures.fig26_non_oversubscribed()
    assert built == [("fig12-data-mining", 7), ("fig12-web-search", 23),
                     ("fig22", 7), ("fig26", 7)]


def test_fig23_smoke():
    result = smoke("fig23")
    assert_rows(result, ["scheme", "incast_ratio", "overall_avg_ms"])


def test_fig24_smoke():
    result = smoke("fig24")
    schemes = [row["scheme"] for row in result["rows"]]
    assert schemes.count("rc3") == 1 and "ppt" in schemes


def test_fig25_smoke():
    result = smoke("fig25")
    assert {r["scheme"] for r in result["rows"]} == {"hpcc", "pias", "ppt"}


def test_fig27_smoke():
    result = smoke("fig27")
    assert result["rows"][0]["send_buffer"] == 128_000


def test_fig28_smoke(harvests):
    """Figs 28 and 29 read occupancy and efficiency off the same run of
    each (scheme, ECN fraction)."""
    result = smoke("fig28")
    assert_rows(result, ["scheme", "avg_total_bytes", "low_share"])
    assert len(harvests) == len(result["rows"]) == 3


def test_fig29_smoke():
    """Fig 29's transfer efficiency is read off fig28's runs."""
    result = smoke("fig28")
    assert_rows(result, ["scheme", "overall_efficiency"])
    # NaN for DCTCP, which sends no LP packet
    assert all("lp_efficiency" in row for row in result["rows"])


@pytest.mark.parametrize("name", ["sec63", "ext-baselines",
                                  "ext-buffer-model"])
def test_sec63_and_extension_smoke(name):
    smoke(name)  # the golden rows name every scheme and variant


def test_sec41_smoke():
    result = smoke("sec41")
    assert 0.0 <= result["memcached"] <= 1.0
    assert 0.0 <= result["web"] <= 1.0


if __name__ == "__main__":
    results = {name: call() for name, call in sorted(SMOKE_CALLS.items())}
    recorded = {name: [{key: _cell(value) for key, value in row.items()}
                       for row in result["rows"]]
                for name, result in results.items()}
    recorded["series"] = {name: _series(result)
                          for name, result in results.items()
                          if "series" in result}
    GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(SMOKE_CALLS)} drivers -> {GOLDEN}")
