#!/usr/bin/env python3
"""The §6.2 large-scale comparison (Fig. 12), runnable at any scale.

Compares PPT against NDP, Aeolus, Homa, RC3 and DCTCP on the
oversubscribed leaf-spine fabric under the web-search workload.

Run:
    python examples/websearch_comparison.py                 # scaled default
    python examples/websearch_comparison.py --load 0.7
    python examples/websearch_comparison.py --flows 300 --workload data-mining
"""

import argparse

from repro import format_table
from repro.experiments.figures import fig12_13_largescale
from repro.workloads import WORKLOADS


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--load", type=float, default=0.5,
                        help="network load (default 0.5)")
    parser.add_argument("--flows", type=int, default=150,
                        help="number of flows (default 150)")
    parser.add_argument("--workload", default="web-search",
                        choices=sorted(WORKLOADS))
    args = parser.parse_args()

    print(f"workload={args.workload} load={args.load} flows={args.flows}")
    result = fig12_13_largescale(args.workload, load=args.load,
                                 n_flows=args.flows)
    print(format_table(result["rows"]))

    ppt = next(r for r in result["rows"] if r["scheme"] == "ppt")
    best_other = min((r for r in result["rows"] if r["scheme"] != "ppt"),
                     key=lambda r: r["overall_avg_ms"])
    print(f"\nPPT overall avg: {ppt['overall_avg_ms']:.3f}ms; "
          f"best baseline: {best_other['scheme']} "
          f"({best_other['overall_avg_ms']:.3f}ms)")


if __name__ == "__main__":
    main()
