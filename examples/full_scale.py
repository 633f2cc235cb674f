#!/usr/bin/env python3
"""The paper's full-size §6.2 fabric: 144 hosts, 9 leaves, 4 spines.

Everything else in this repository runs on scaled-down replicas so the
test and benchmark suites finish in minutes; this example shows how to
ask for the real thing.  A pure-Python packet-level simulation of 144
hosts at 40/100G is *slow* — budget minutes per scheme, more with many
flows — so the default keeps the flow count modest.

Run:
    python examples/full_scale.py --flows 100 --schemes ppt dctcp
"""

import argparse
import time

from repro import format_table
from repro.experiments import run_grid, scheme_grid
from repro.experiments.scenarios import (
    SCHEMES,
    all_to_all_scenario,
    sim_fabric,
    sim_qcfg,
)
from repro.workloads import WEB_SEARCH


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--flows", type=int, default=100)
    parser.add_argument("--load", type=float, default=0.5)
    parser.add_argument("--size-cap", type=int, default=2_000_000)
    parser.add_argument("--schemes", nargs="+", default=["ppt", "dctcp"],
                        choices=sorted(SCHEMES))
    args = parser.parse_args()

    fabric = sim_fabric(n_leaf=9, n_spine=4, hosts_per_leaf=16,
                        qcfg=sim_qcfg())
    print(f"{' '.join(args.schemes)} on 144 hosts ...", flush=True)
    t0 = time.time()
    summaries = run_grid(scheme_grid(
        {name: SCHEMES[name] for name in args.schemes},
        lambda: all_to_all_scenario(
            "full-scale", WEB_SEARCH, load=args.load, n_flows=args.flows,
            fabric=fabric, size_cap=args.size_cap),
        [{}]), jobs=-1)
    print()
    print(format_table([summary.row() for summary in summaries]))
    print(f"\n{time.time() - t0:.1f}s wall for {len(summaries)} run(s)")


if __name__ == "__main__":
    main()
