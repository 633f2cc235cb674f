"""Experiment harness: scenarios, runners and per-figure drivers."""

from . import figures, parallel, scenarios, tables
from .parallel import GridTask, RunSummary, run_grid, scheme_grid
from .runner import (
    RunResult,
    Scenario,
    format_table,
    run,
    two_pass,
)

__all__ = ["Scenario", "RunResult", "run", "two_pass",
           "format_table", "figures", "scenarios", "tables",
           "parallel", "GridTask", "RunSummary", "run_grid", "scheme_grid"]
