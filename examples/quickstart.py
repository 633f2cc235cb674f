#!/usr/bin/env python3
"""Quickstart: PPT vs DCTCP on a small web-search workload.

Builds a scaled leaf-spine fabric (32 hosts, 40G/100G), offers Poisson
web-search traffic at 0.5 load, and prints the four FCT statistics the
paper reports for both transports.

Run:
    python examples/quickstart.py
"""

from repro import Dctcp, Ppt, format_table
from repro.experiments import run_grid, scheme_grid
from repro.experiments.scenarios import all_to_all_scenario
from repro.metrics import reduction
from repro.workloads import WEB_SEARCH


def main() -> None:
    # the whole experiment pipeline: schemes x scenario -> one summary
    # per run, whose row() is the printable FCT row
    summaries = run_grid(
        scheme_grid({"dctcp": Dctcp, "ppt": Ppt},
                    lambda: all_to_all_scenario("quickstart", WEB_SEARCH,
                                                load=0.5, n_flows=150),
                    [{}]),
        progress=lambda name: print(f"running {name} ..."))

    print()
    print(format_table([summary.row() for summary in summaries]))
    print()
    dctcp, ppt = (summary.stats for summary in summaries)
    print(f"PPT reduces the overall average FCT by "
          f"{reduction(dctcp.overall_avg, ppt.overall_avg):.1f}% "
          f"and the small-flow average by "
          f"{reduction(dctcp.small_avg, ppt.small_avg):.1f}% vs DCTCP.")


if __name__ == "__main__":
    main()
