"""``run.py --compare A.json B.json``: is B a regression against A?

Per workload x end-to-end metric: both medians, the relative change
(positive = B worse), each side's spread (inter-quartile distance of
its runs over their median, ``statistics.quantiles(n=4)``), the
benchmark's bound, and a verdict:

* ``worse``      — B's median is worse than A's by more than the bound;
* ``unresolved`` — not worse, but a side's spread is wider than the
  bound (or has under four runs, so no spread can be stated), unless
  every run of B reads better than every run of A;
* ``ok``         — otherwise.

Simulated outcomes are deterministic, so they are compared exactly: the
``sim.fingerprint`` of every (workload, seed, traced?) run present in
both files, and every exact-repeat per-layer count of the traced runs.
Exit status is 1 on any ``worse`` and on any simulated difference
unless ``--allow-sim-change``; ``unresolved`` is reported, not fatal.
"""

from __future__ import annotations

import json
import statistics
from typing import Dict, List, Optional, Tuple

MIN_RUNS_FOR_SPREAD = 4

# per-layer metrics that are host time (or derived from it): every other
# per-layer metric is a count that must repeat exactly
HOST_TIME_SUFFIXES = ("self_s", "_ns_per_event", "_ns_per_pkt", "_per_s",
                      "harvest_s", "overhead_x", "overhead_frac")


def spread(values: List[float]) -> Optional[float]:
    if len(values) < MIN_RUNS_FOR_SPREAD:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def _load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _timed_values(doc: dict) -> Dict[Tuple[str, str], List[float]]:
    out: Dict[Tuple[str, str], List[float]] = {}
    for run in doc["runs"]:
        if run["trace"]:
            continue
        for name, metric in run["result"]["metrics"].items():
            out.setdefault((run["workload"], name), []).append(metric["value"])
    return out


def _verdict(a: List[float], b: List[float], better: str,
             bound: float) -> Tuple[str, float]:
    med_a, med_b = statistics.median(a), statistics.median(b)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (med_b - med_a) / med_a
    if worse_by > bound:
        return "worse", worse_by
    spreads = [spread(a), spread(b)]
    b_wins_all = (max(b) < min(a)) if better == "lower" else (min(b) > max(a))
    if not b_wins_all and any(s is None or s > bound for s in spreads):
        return "unresolved", worse_by
    return "ok", worse_by


def _fmt_spread(s: Optional[float]) -> str:
    return "   n/a" if s is None else f"{s:6.1%}"


def main(path_a: str, path_b: str, allow_sim_change: bool) -> int:
    doc_a, doc_b = _load(path_a), _load(path_b)
    spec = doc_b["meta"]["benchmark"]
    a_vals, b_vals = _timed_values(doc_a), _timed_values(doc_b)
    counts = {"ok": 0, "worse": 0, "unresolved": 0}
    print(f"{'workload':<26}{'metric':<22}{'median A':>12}{'median B':>12}"
          f"{'B worse by':>11}{'spread A':>9}{'spread B':>9}{'bound':>7}  verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            key = (workload, metric["name"])
            if key not in a_vals or key not in b_vals:
                continue
            a, b = a_vals[key], b_vals[key]
            verdict, worse_by = _verdict(a, b, metric["better"],
                                         metric["bound"])
            counts[verdict] += 1
            print(f"{workload:<26}{metric['name']:<22}"
                  f"{statistics.median(a):>12.5g}{statistics.median(b):>12.5g}"
                  f"{worse_by:>+11.1%}{_fmt_spread(spread(a)):>9}"
                  f"{_fmt_spread(spread(b)):>9}{metric['bound']:>7.0%}  {verdict}")

    sim_diffs = _simulated_differences(doc_a, doc_b)
    for line in sim_diffs:
        print(f"simulated outcome differs: {line}")
    print(f"{counts['ok']} ok, {counts['worse']} worse, "
          f"{counts['unresolved']} unresolved; "
          f"{len(sim_diffs)} simulated difference(s)")
    if counts["worse"] or (sim_diffs and not allow_sim_change):
        return 1
    return 0


def _simulated_differences(doc_a: dict, doc_b: dict) -> List[str]:
    def index(doc: dict) -> Dict[Tuple[str, int, int], dict]:
        return {(r["workload"], r["seed"], r["trace"]): r for r in doc["runs"]}

    runs_a, runs_b = index(doc_a), index(doc_b)
    diffs: List[str] = []
    for key in sorted(runs_a.keys() & runs_b.keys()):
        a, b = runs_a[key], runs_b[key]
        label = f"{key[0]} seed {key[1]}{' traced' if key[2] else ''}"
        if a["detail"]["fingerprint"] != b["detail"]["fingerprint"]:
            diffs.append(f"{label}: sim.fingerprint "
                         f"{a['detail']['fingerprint'][:16]} != "
                         f"{b['detail']['fingerprint'][:16]}")
        if not key[2]:
            continue
        for name, metric in a["result"]["metrics"].items():
            if name.endswith(HOST_TIME_SUFFIXES):
                continue
            other = b["result"]["metrics"].get(name)
            if other is not None and other["value"] != metric["value"]:
                diffs.append(f"{label}: {name} {metric['value']} != "
                             f"{other['value']}")
    return diffs
