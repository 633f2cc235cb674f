"""Perf ratchet: fail when engine throughput regresses past the budget.

Compares a freshly measured ``BENCH_core_engine.json`` against the
checked-in baseline at the repo root and exits non-zero when any gated
probe's metric falls below ``threshold`` times the baseline.  The
default gates are ``dctcp-incast`` (the full-datapath number that
bounds experiment wall time), ``leaf-spine`` (the multi-hop ECMP
forwarding path, which exercises the switch selection code the
load-balancer seam hangs off), ``homa-incast`` (the receiver-driven
message core, which the window probes bypass), and ``hybrid-soak``
(the flow-level fast path's simulated-flow-hours-per-wall-second on a
heavy-traffic scenario — the ratchet that keeps the hybrid speedup
honest), each at 0.75x — a 25% allowance for runner noise (the checked-in baseline and
CI run on different hardware, so the gates catch structural
regressions, not jitter).

Usage (what CI runs)::

    python benchmarks/perf_ratchet.py \
        --baseline BENCH_core_engine.json \
        --fresh bench-out/BENCH_core_engine.json

Raising the checked-in baseline after an optimisation lands tightens
the ratchet for every commit after it.
"""

import argparse
import json
import sys

#: bench name -> the row metric the ratchet gates on.  Engine probes
#: gate on raw event throughput; the hybrid probe's entire point is
#: simulated flow-hours per wall-second, so that is what it gates on.
GATED_METRICS = {
    "dctcp-incast": "events_per_sec",
    "leaf-spine": "events_per_sec",
    "homa-incast": "events_per_sec",
    "hybrid-soak": "flow_hours_per_sec",
}
DEFAULT_METRIC = "events_per_sec"
DEFAULT_BENCHES = ("dctcp-incast", "leaf-spine", "homa-incast", "hybrid-soak")


class RatchetError(RuntimeError):
    """A results file is missing, malformed, or lacks a gated row."""


def rows_by_bench(path):
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise RatchetError(f"cannot read bench results {path}: {exc}") from exc
    except ValueError as exc:
        raise RatchetError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict) or "rows" not in payload:
        raise RatchetError(
            f"{path} is not a bench results file: expected a JSON object "
            f"with a 'rows' list (regenerate with "
            f"benchmarks/bench_core_engine.py)")
    rows = {}
    for i, row in enumerate(payload["rows"]):
        if not isinstance(row, dict) or "bench" not in row:
            raise RatchetError(
                f"{path}: rows[{i}] has no 'bench' name "
                f"(got {row!r}); the file is malformed")
        rows[row["bench"]] = row
    return rows


def _metric(row, bench, path):
    key = GATED_METRICS.get(bench, DEFAULT_METRIC)
    if key not in row:
        raise RatchetError(
            f"{path}: the {bench!r} row has no {key!r} metric "
            f"(keys: {sorted(row)}); re-run the benchmark with a build "
            f"that records it")
    return key, row[key]


def check(baseline_path, fresh_path, bench="dctcp-incast", threshold=0.75):
    """Returns (ok, message) comparing one probe across the two files."""
    baseline = rows_by_bench(baseline_path)
    fresh = rows_by_bench(fresh_path)
    if bench not in baseline:
        return False, (
            f"baseline {baseline_path} has no {bench!r} row "
            f"(has: {', '.join(sorted(baseline)) or 'none'}); add one by "
            f"running benchmarks/bench_core_engine.py and checking the "
            f"row in")
    if bench not in fresh:
        return False, (
            f"fresh results {fresh_path} have no {bench!r} row "
            f"(has: {', '.join(sorted(fresh)) or 'none'}); the benchmark "
            f"run that produced the file skipped this probe")
    key, base_value = _metric(baseline[bench], bench, baseline_path)
    _, fresh_value = _metric(fresh[bench], bench, fresh_path)
    floor = threshold * base_value
    ratio = fresh_value / base_value if base_value else float("inf")
    unit = "flow-h/s" if key == "flow_hours_per_sec" else "ev/s"
    message = (f"{bench}: fresh {fresh_value:,.0f} {unit} vs baseline "
               f"{base_value:,.0f} {unit} ({ratio:.2f}x, "
               f"floor {threshold:.2f}x)")
    return fresh_value >= floor, message


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", default="BENCH_core_engine.json",
                        help="checked-in baseline JSON (repo root)")
    parser.add_argument("--fresh", required=True,
                        help="freshly measured JSON to gate")
    parser.add_argument("--bench", action="append", default=None,
                        help="probe row to gate on (repeatable; default: "
                             + ", ".join(DEFAULT_BENCHES) + ")")
    parser.add_argument("--threshold", type=float, default=0.75,
                        help="minimum fresh/baseline metric ratio")
    args = parser.parse_args(argv)
    benches = args.bench or list(DEFAULT_BENCHES)
    failures = 0
    for bench in benches:
        try:
            ok, message = check(args.baseline, args.fresh,
                                bench=bench, threshold=args.threshold)
        except RatchetError as exc:
            ok, message = False, str(exc)
        print(("OK      " if ok else "REGRESSED ") + message)
        if not ok:
            failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
