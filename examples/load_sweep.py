#!/usr/bin/env python3
"""Load sweep: how PPT's advantage evolves as the network load grows.

Uses the generic sweep machinery (`repro.experiments.sweeps`) to run a
scheme grid over loads and optionally archives the rows as JSON for
later diffing.

Run:
    python examples/load_sweep.py
    python examples/load_sweep.py --loads 0.3 0.5 0.7 --out sweep.json
"""

import argparse

from repro import Dctcp, Ppt, Rc3, format_table
from repro.experiments.scenarios import all_to_all_scenario
from repro.experiments.sweeps import load_sweep_variants, rows_to_json, sweep
from repro.workloads import WEB_SEARCH


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--loads", type=float, nargs="+",
                        default=[0.3, 0.5, 0.7])
    parser.add_argument("--flows", type=int, default=120)
    parser.add_argument("--out", default=None,
                        help="optional JSON output path")
    args = parser.parse_args()

    def scenario_factory(load):
        return all_to_all_scenario(f"sweep-{load}", WEB_SEARCH, load=load,
                                   n_flows=args.flows)

    summaries = sweep(
        {"dctcp": Dctcp, "rc3": Rc3, "ppt": Ppt},
        scenario_factory,
        load_sweep_variants(args.loads),
        progress=lambda msg: print(f"running {msg} ..."),
    )
    print()
    rows = [summary.row() for summary in summaries]
    print(format_table(rows))
    if args.out:
        rows_to_json(rows, args.out,
                     meta={"loads": args.loads, "flows": args.flows})
        print(f"\nsaved {len(rows)} rows to {args.out}")


if __name__ == "__main__":
    main()
