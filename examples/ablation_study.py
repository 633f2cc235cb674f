#!/usr/bin/env python3
"""PPT component ablations (Figs. 15-18) in one sweep.

Disables each of PPT's four design components in turn — LCP ECN, EWD,
flow scheduling, buffer-aware identification (plus the whole LCP loop) —
and compares FCT statistics against the full design.

Run:
    python examples/ablation_study.py
    python examples/ablation_study.py --load 0.7 --flows 200
"""

import argparse
import functools

from repro import Ppt, format_table
from repro.experiments import run_grid, scheme_grid
from repro.experiments.scenarios import all_to_all_scenario
from repro.workloads import WEB_SEARCH

VARIANTS = [
    ("full design", dict()),
    ("no LCP ECN (Fig 15)", dict(lcp_ecn=False)),
    ("no EWD (Fig 16)", dict(ewd=False)),
    ("no scheduling (Fig 17)", dict(scheduling=False)),
    ("no identification (Fig 18)", dict(identification=False)),
    ("no LCP loop at all", dict(lcp_enabled=False)),
]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--load", type=float, default=0.5)
    parser.add_argument("--flows", type=int, default=150)
    args = parser.parse_args()

    # one "scheme" per variant; every core takes a share of the six runs
    summaries = run_grid(scheme_grid(
        {label: functools.partial(Ppt, **flags) for label, flags in VARIANTS},
        lambda: all_to_all_scenario("ablation", WEB_SEARCH, load=args.load,
                                    n_flows=args.flows),
        [{}]), jobs=-1)
    print()
    print(format_table([summary.row() for summary in summaries]))


if __name__ == "__main__":
    main()
