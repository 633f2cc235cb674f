"""Experiment harness: scenarios, runners and per-figure drivers."""

from .. import _lazy_exports

__all__ = _lazy_exports(__name__, {
    ".runner": ("Scenario", "RunResult", "run", "two_pass", "format_table"),
    ".figures": ("figures",),
    ".scenarios": ("scenarios",),
    ".tables": ("tables",),
    ".parallel": ("parallel", "GridTask", "RunSummary", "run_grid",
                  "scheme_grid"),
})
