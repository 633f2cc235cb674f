"""Extension: seed robustness of the headline result.

Every figure in the suite runs one seeded realisation; this benchmark
replays the Fig-12 web-search comparison over three independent seeds
and checks the headline ordering — PPT below DCTCP and RC3 on the
overall average, and far below both on the small-flow tail — holds for
every one of them, i.e. the reproduction is not a single-seed artefact.

The seed × scheme grid runs on the parallel executor
(:mod:`repro.experiments.parallel`) with one worker per core; results
are merged in deterministic grid order, so the table is identical to a
serial run but the wall time is divided by the core count.
"""

from conftest import run_figure
from repro.experiments.parallel import run_grid, scheme_grid
from repro.experiments.scenarios import SCHEMES, all_to_all_scenario
from repro.workloads.distributions import WEB_SEARCH

SEEDS = (7, 23, 101)


def _make_scenario(seed=7):
    return all_to_all_scenario(f"seed-{seed}", WEB_SEARCH, load=0.5,
                               n_flows=150, seed=seed)


def _run_seeds(jobs=None):
    summaries = run_grid(scheme_grid(
        {name: SCHEMES[name] for name in ("dctcp", "rc3", "ppt")},
        _make_scenario, [{"seed": seed} for seed in SEEDS]), jobs=jobs)
    return {"rows": [summary.row() for summary in summaries]}


def test_headline_holds_across_seeds(benchmark):
    result = run_figure(benchmark, "Extension: seed stability",
                        _run_seeds, jobs=-1)
    data = {(r["seed"], r["scheme"]): r for r in result["rows"]}
    assert all(r["flows"] == 150 for r in result["rows"])
    for seed in SEEDS:
        ppt = data[(seed, "ppt")]
        for other in ("dctcp", "rc3"):
            base = data[(seed, other)]
            assert ppt["overall_avg_ms"] < base["overall_avg_ms"], (
                f"seed={seed} vs {other}")
            assert ppt["small_avg_ms"] < base["small_avg_ms"]
            assert ppt["small_p99_ms"] < base["small_p99_ms"] / 2
