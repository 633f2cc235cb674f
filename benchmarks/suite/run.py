#!/usr/bin/env python3
"""The repo benchmark: five workloads, host time per simulated workload,
and a per-module cost table.  See README.md beside this file.

    python3 benchmarks/suite/run.py                       # every workload
    python3 benchmarks/suite/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/suite/run.py --seeds 10 --trace --out set.json
    python3 benchmarks/suite/run.py --quick
    python3 benchmarks/suite/run.py --compare A.json B.json

Every measurement runs in its own fresh single-threaded child process,
one at a time; this parent only spawns, waits and reports.  Names,
units, bounds and the run length come from ``BENCHMARK.json`` at the
repo root, the one place they are declared.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import List, Optional

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
SRC = ROOT / "src"
WORK = SUITE / ".work"
SETUP_PROBES = 5
QUICK_SCALE = 0.1


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


# -- child side ---------------------------------------------------------------


def child_main(args: argparse.Namespace) -> int:
    sys.path.insert(0, str(SRC))
    import measure
    out = measure.main(args.child, args.workload, args.seed, args.scale,
                       args.seconds, args.reps,
                       str(WORK / f"{os.getpid()}"))
    print(json.dumps(out))
    return 0


# -- parent side --------------------------------------------------------------


def spawn(mode: str, workload: str, seed: int, scale: float,
          seconds: float, reps: Optional[int]) -> dict:
    """Run one child to completion and return the JSON on its last line."""
    cmd = [sys.executable, str(SUITE / "run.py"), "--child", mode,
           "--workload", workload, "--seed", str(seed),
           "--scale", repr(scale), "--seconds", repr(seconds)]
    if reps is not None:
        cmd += ["--reps", str(reps)]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
    if done.returncode != 0:
        raise SystemExit(f"{workload}: {mode} child exited with code "
                         f"{done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def measure_workload(spec: dict, workload: str, seed: int, trace: bool,
                     scale: float, seconds: float, reps: Optional[int],
                     probes: int) -> dict:
    """One contract run: ``{correct, attempted, failed, metrics}`` plus a
    ``detail`` record (per-rep times, fingerprint, self-time table)."""
    from calibrate import Calibrated  # no simulator import in the parent

    if trace:
        child = spawn("traced", workload, seed, scale, seconds, reps)
        values = child["metrics"]
        declared = spec["per_layer"]
    else:
        cal = Calibrated()
        setup_raw, setup_scaled = [], []
        for _ in range(probes):
            _, raw, scaled = cal.timed(
                lambda: spawn("setup", workload, seed, scale, seconds, reps))
            setup_raw.append(raw)
            setup_scaled.append(scaled)
        child = spawn("timed", workload, seed, scale, seconds, reps)
        child["setup_raw_s"] = setup_raw
        child["setup_scaled_s"] = setup_scaled
        values = {name: child[name] for name in
                  ("wall_s", "sim_goodput_mb_per_s", "flows_per_s",
                   "peak_rss_mb")}
        values["setup_s"] = statistics.median(setup_scaled)
        declared = spec["end_to_end"]

    names = [m["name"] for m in declared]
    if sorted(names) != sorted(values):
        raise SystemExit(
            f"{workload}: measured metrics do not match BENCHMARK.json: "
            f"missing {sorted(set(names) - set(values))}, "
            f"undeclared {sorted(set(values) - set(names))}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    detail = {k: v for k, v in child.items() if k != "metrics"}
    return {
        "workload": workload, "seed": seed, "trace": int(trace),
        "result": {"correct": child["failed"] == 0 and not child["notes"],
                   "attempted": child["attempted"],
                   "failed": child["failed"], "metrics": metrics},
        "detail": detail,
    }


def report(record: dict) -> None:
    """Every metric by name with its unit, then what backs it."""
    result, detail = record["result"], record["detail"]
    print(f"== {record['workload']}  seed {record['seed']}  "
          f"{'traced' if record['trace'] else 'timed'}")
    for name, metric in result["metrics"].items():
        print(f"  {name:<32} {metric['value']:>16.6g} {metric['unit']}")
    share = result["failed"] / result["attempted"]
    print(f"  flows_attempted {result['attempted']}  flows_failed "
          f"{result['failed']}  failed share {share:.4f}  "
          f"sim.fingerprint {detail['fingerprint'][:16]}")
    for note in detail["notes"]:
        print(f"  !! {note}")
    if record["trace"]:
        table = detail["table"]
        total = table["total_self_s"]
        print(f"  self time by layer (profiled total {total:.3f} s, traced "
              f"wall {table['traced_wall_raw_s']:.3f} s, untraced "
              f"{table['base_wall_raw_s']:.3f} s raw):")
        for layer, seconds in sorted(table["self_s"].items(),
                                     key=lambda kv: -kv[1]):
            print(f"    {layer:<10} {seconds:8.3f} s  {seconds / total:6.1%}")
        print("  obs/validate overhead fractions of a few percent are at "
              "this box's noise floor")
    else:
        reps = detail["rep_scaled_s"]
        print(f"  wall_s is the median of {len(reps)} reps "
              f"(min {min(reps):.4f}, max {max(reps):.4f}; raw median "
              f"{detail['wall_raw_s']:.4f} s); setup_s the median of "
              f"{len(detail['setup_scaled_s'])} fresh processes")


def write_out(path: str, spec: dict, records: List[dict]) -> None:
    meta = {"python": platform.python_version(), "nproc": os.cpu_count(),
            "machine": platform.machine(), "benchmark": spec}
    with open(path, "w") as fh:
        json.dump({"meta": meta, "runs": records}, fh, indent=1)
        fh.write("\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0,
                        help="offset added to every default seed")
    parser.add_argument("--seeds", type=int, default=1,
                        help="timed runs per workload, on consecutive seeds")
    parser.add_argument("--seconds", type=float,
                        help="timed window per run (default: run_seconds)")
    parser.add_argument("--reps", type=int,
                        help="exactly this many reps instead of a window")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        help="0: end-to-end metrics; 1: per-layer metrics "
                             "(without --workload: add a traced run each)")
    parser.add_argument("--quick", action="store_true",
                        help="1/10 size, 1 rep, 1 set-up probe, no trace")
    parser.add_argument("--out", help="write every run to this JSON file")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--allow-sim-change", action="store_true")
    parser.add_argument("--child", choices=("setup", "timed", "traced"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--scale", type=float, default=1.0,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.compare:
        import compare
        return compare.main(args.compare[0], args.compare[1],
                            args.allow_sim_change)
    if not (SRC / "repro").is_dir():
        print(f"error: {SRC / 'repro'} not found: the benchmark runs the "
              f"simulator from source", file=sys.stderr)
        return 2
    if args.child:
        return child_main(args)

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; one of {names}",
              file=sys.stderr)
        return 2
    scale = QUICK_SCALE if args.quick else args.scale
    seconds = args.seconds if args.seconds is not None \
        else float(spec["run_seconds"])
    reps = args.reps if args.reps is not None else (1 if args.quick else None)
    probes = 1 if args.quick else SETUP_PROBES

    def one(workload: str, seed: int, trace: bool) -> dict:
        record = measure_workload(spec, workload, seed, trace, scale,
                                  seconds, reps, probes)
        report(record)
        return record

    records: List[dict] = []
    if args.workload is not None:
        # the contract: one run, its result the last line of stdout
        records.append(one(args.workload, args.seed, bool(args.trace)))
        print(json.dumps(records[0]["result"]))
    else:
        for workload in names:
            for k in range(args.seeds):
                records.append(one(workload, args.seed + k, False))
            if args.trace and not args.quick:
                records.append(one(workload, args.seed, True))
    if args.out:
        write_out(args.out, spec, records)
    return 0 if all(r["result"]["correct"] for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
