"""Parallel experiment executor: determinism, summaries, grid wiring.

The headline guarantee under test: ``run_grid(scheme_grid(...),
jobs=N)`` returns **bit-identical** results to the serial path, in the
same deterministic grid order — parallelism must be purely a
wall-clock optimisation.  A cell's trace file is written where the cell
runs, forked or not.
"""

import pickle
import re
from pathlib import Path

import pytest

from repro.core.ppt import Ppt
from repro.experiments import figures, workers
from repro.experiments.parallel import (
    GridTask,
    RunSummary,
    run_grid,
    scheme_grid,
)
from repro.experiments.runner import run
from repro.experiments.scenarios import all_to_all_scenario, sim_fabric
from repro.experiments.workers import default_jobs
from repro.obs import load_jsonl
from repro.transport.dctcp import Dctcp
from repro.workloads.distributions import WEB_SEARCH

TINY_FABRIC = sim_fabric(n_leaf=2, n_spine=2, hosts_per_leaf=2)


def tiny_factory(load=0.4, seed=7):
    return all_to_all_scenario(
        f"par-{load}-{seed}", WEB_SEARCH, load=load, n_flows=8,
        size_cap=200_000, seed=seed, fabric=TINY_FABRIC)


def tiny_tasks():
    return scheme_grid({"dctcp": Dctcp, "ppt": Ppt}, tiny_factory,
                       [{"load": 0.3}, {"load": 0.5}])


def test_parallel_sweep_bit_identical_to_serial():
    factories = {"dctcp": Dctcp, "ppt": Ppt}
    variants = [{"load": load, "seed": seed}
                for load in (0.3, 0.5) for seed in (7, 8)]
    serial = run_grid(scheme_grid(factories, tiny_factory, variants))
    parallel = run_grid(scheme_grid(factories, tiny_factory, variants),
                        jobs=2)
    # same rows, same order, same stats — dataclass equality is exact
    assert parallel == serial


def test_run_grid_parallel_equals_serial():
    serial = run_grid(tiny_tasks())
    parallel = run_grid(tiny_tasks(), jobs=2)
    assert parallel == serial


def test_grid_order_is_variants_outer_schemes_inner():
    tasks = tiny_tasks()
    assert [(t.scheme_key, t.params["load"]) for t in tasks] == [
        ("dctcp", 0.3), ("ppt", 0.3), ("dctcp", 0.5), ("ppt", 0.5)]
    summaries = run_grid(tasks, jobs=2)
    assert [(s.scheme, s.params["load"]) for s in summaries] == [
        ("dctcp", 0.3), ("ppt", 0.3), ("dctcp", 0.5), ("ppt", 0.5)]


def test_summary_matches_full_result():
    task = GridTask(scheme_factory=Dctcp, scenario_factory=tiny_factory,
                    params={"load": 0.4}, scheme_key="dctcp")
    summary = task.execute()
    result = run(Dctcp(), tiny_factory(load=0.4))
    assert summary.scheme == "dctcp"
    assert summary.scenario == result.scenario_name
    assert summary.stats == result.stats
    assert summary.health == result.health
    assert summary.health.completed == result.completed == 8
    assert summary.health.events_run == result.wall_events


def test_summary_survives_pickling():
    summary = run_grid(tiny_tasks()[:1])[0]
    clone = pickle.loads(pickle.dumps(summary))
    assert clone == summary
    assert isinstance(clone, RunSummary)


def test_summary_row_is_scheme_params_then_fct_numbers():
    """``RunSummary.row()`` is the one printable FCT row: params
    flattened in, milliseconds from ``FctStats.row``, and an empty
    bucket says ``n=0`` (sizes capped at the small-flow boundary)."""
    summary, = run_grid(scheme_grid(
        {"dctcp": Dctcp},
        lambda load, seed: all_to_all_scenario(
            "row", WEB_SEARCH, load=load, seed=seed, n_flows=8,
            size_cap=100_000, fabric=TINY_FABRIC),
        [{"load": 0.4, "seed": 7}]))
    row = summary.row()
    assert list(row) == ["scheme", "load", "seed", "flows",
                         "overall_avg_ms", "small_avg_ms", "small_p99_ms",
                         "large_avg_ms"]
    assert (row["scheme"], row["load"], row["seed"]) == ("dctcp", 0.4, 7)
    assert row["flows"] == summary.stats.n_flows == 8
    assert row["overall_avg_ms"] == summary.stats.overall_avg * 1e3
    assert summary.stats.n_large == 0 and row["large_avg_ms"] == "n=0"


def test_scheme_grid_forwards_task_fields():
    tasks = scheme_grid({"dctcp": Dctcp}, tiny_factory, [{}],
                        observe=True, validate="strict")
    assert [(t.observe, t.validate, t.label) for t in tasks] == [
        (True, "strict", "dctcp")]


@pytest.mark.parametrize("execution", ["no-fork", "jobs-1", "jobs-2"])
def test_grid_backed_figure_rows_do_not_depend_on_execution(
        execution, monkeypatch):
    """A figure driver asks for one worker per core; the rows are the
    same bits whether the cells fork onto two workers, onto one, or run
    serially in-process where ``fork`` is missing."""
    import repro.experiments.parallel as par

    reference = figures.fig14_delay_based(n_flows=15)["rows"]
    if execution == "no-fork":
        monkeypatch.setattr(workers, "fork_available", lambda: False)
        monkeypatch.setattr(par, "_warned_no_fork", True)  # keep it quiet
    else:
        monkeypatch.setattr(workers, "default_jobs",
                            lambda: int(execution[-1]))
    assert figures.fig14_delay_based(n_flows=15)["rows"] == reference


def test_progress_fires_once_per_cell_in_grid_order():
    labels_serial, labels_parallel = [], []
    run_grid(tiny_tasks(), progress=labels_serial.append)
    run_grid(tiny_tasks(), jobs=2, progress=labels_parallel.append)
    assert labels_serial == labels_parallel
    assert len(labels_serial) == 4


def test_forked_cell_writes_its_trace_file(tmp_path):
    """The event trace never crosses the worker pipe: the cell exports
    it where it runs, and the summary's digest counts what it wrote."""
    path = tmp_path / "cell.jsonl"
    task = GridTask(scheme_factory=Dctcp, scenario_factory=tiny_factory,
                    scheme_key="dctcp", trace_out=str(path))
    spare = GridTask(scheme_factory=Ppt, scenario_factory=tiny_factory)
    summary, _ = run_grid([task, spare], jobs=2)
    events = load_jsonl(path)
    assert len(events) == summary.telemetry.events_kept > 0
    assert summary.telemetry.flows_completed == 8


def test_jobs_minus_one_uses_default_jobs():
    assert default_jobs() >= 1
    summaries = run_grid(tiny_tasks()[:2], jobs=-1)
    assert len(summaries) == 2


def test_cli_jobs_flag():
    from repro.cli import main
    assert main(["run", "--schemes", "dctcp", "--flows", "8",
                 "--jobs", "2", "--health"]) == 0


# ---------------------------------------------------------------------------
# worker-count defaults + no-fork degrade
# ---------------------------------------------------------------------------


def test_default_jobs_respects_cpu_affinity(monkeypatch):
    import os
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2},
                        raising=False)
    assert default_jobs() == 3


def test_default_jobs_falls_back_without_affinity(monkeypatch):
    import os

    def no_affinity(pid):
        raise OSError("not supported here")

    monkeypatch.setattr(os, "sched_getaffinity", no_affinity, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 6)
    assert default_jobs() == 6


def test_run_grid_warns_once_and_degrades_serially_without_fork(monkeypatch):
    import multiprocessing
    import warnings

    import pytest

    import repro.experiments.parallel as par

    monkeypatch.setattr(par.workers, "fork_available", lambda: False)
    monkeypatch.setattr(par, "_warned_no_fork", False)
    with pytest.warns(RuntimeWarning,
                      match=multiprocessing.get_start_method()):
        degraded = par.run_grid(tiny_tasks()[:2], jobs=2)
    # one-shot: a second degraded grid stays silent
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        again = par.run_grid(tiny_tasks()[:2], jobs=2)
    serial = par.run_grid(tiny_tasks()[:2])
    assert degraded == serial == again


def test_run_grid_jobs_one_never_warns(monkeypatch):
    import warnings

    import repro.experiments.parallel as par

    monkeypatch.setattr(par.workers, "fork_available", lambda: False)
    monkeypatch.setattr(par, "_warned_no_fork", False)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        par.run_grid(tiny_tasks()[:1], jobs=1)


# ---------------------------------------------------------------------------
# one pipeline: source scans
# ---------------------------------------------------------------------------

REPO = Path(__file__).resolve().parent.parent


def test_fct_stats_row_is_the_only_seconds_to_ms_rendering():
    """No driver, bench or example multiplies an FCT field by 1e3 by
    hand (54 places once did, and disagreed on the empty bucket)."""
    files = [*(REPO / "src").rglob("*.py"),
             *(REPO / "benchmarks").glob("*.py"),
             *(REPO / "examples").rglob("*.py")]
    hits = [path.relative_to(REPO).as_posix() for path in files
            if re.search(r"_avg \* 1e3|_p99 \* 1e3", path.read_text())]
    assert hits == []


def test_the_library_does_not_import_the_cli():
    """The CLI is a client of the library (schemes, grids, figures),
    never the other way round."""
    src = REPO / "src" / "repro"
    importers = {path.relative_to(src).as_posix()
                 for path in src.rglob("*.py")
                 if re.search(r"^\s*(from|import) .*\bcli\b",
                              path.read_text(), re.MULTILINE)}
    assert importers == {"__main__.py"}
