"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``list-schemes``
    Show every available transport scheme.
``list-workloads``
    Show the flow-size distributions and their summary statistics.
``run``
    Run one or more schemes on a configurable scenario and print the
    FCT statistics table.
``figure``
    Regenerate one of the paper's figures by name (fig01 .. fig29,
    sec41, sec63) or an extension study (ext-*) and print its rows.
``tables``
    Print Tables 1-3.

Examples
--------

    python -m repro run --schemes ppt dctcp --workload web-search --load 0.5
    python -m repro run --schemes ppt dctcp homa swift --jobs 4
    python -m repro run --schemes ppt dctcp \
        --fault "flap:leaf0->spine0:0.005:0.002:0.004:3" --health
    python -m repro run --schemes ppt --flows 20000 \
        --tenant-mix web-search:3,memcached-w1:1 --load-shape diurnal
    python -m repro figure fig12 --workload data-mining
    python -m repro list-schemes
"""

from __future__ import annotations

import argparse
import inspect
import math
import sys
from collections.abc import Mapping
from typing import Callable, List

from .experiments.runner import format_table, run
from .experiments.scenarios import (
    SCHEMES,
    SIM_PFC,
    all_to_all_scenario,
    incast_scenario,
    soak_scenario,
)
from .resilience.checkpoint import CheckpointError
from .sim.routing import DEFAULT_FLOWLET_GAP, LB_MODES
from .validate.report import InvariantViolation
from .workloads.distributions import WORKLOADS
from .workloads.streams import parse_load_shape, parse_tenant_mix

SCHEME_FACTORIES = SCHEMES  # the name scripts and tests import from here
DEFAULT_SCHEMES = ("ppt", "dctcp")


class _Drivers(Mapping):
    """Figure names -> drivers in :mod:`repro.experiments.figures`, which
    the first lookup imports; ``ext-*`` names are extension studies."""

    _names = {
        "fig01": "fig01_link_utilization",
        "fig02": "fig02_hypothetical",
        "fig03": "fig03_fill_factor",
        "fig08": "fig08_09_testbed_15to15",
        "fig10": "fig10_11_testbed_14to1",
        "fig12": "fig12_13_largescale",
        "fig14": "fig14_delay_based",
        "fig15": "fig15_ablation_lcp_ecn",
        "fig16": "fig16_ablation_ewd",
        "fig17": "fig17_ablation_scheduling",
        "fig18": "fig18_ablation_identification",
        "fig19": "fig19_cpu_overhead",
        "fig20": "fig20_link_utilization",
        "fig21": "fig21_memcached",
        "fig22": "fig22_100_400g",
        "fig23": "fig23_incast_sweep",
        "fig24": "fig24_rc3_lp_buffer",
        "fig25": "fig25_pias_hpcc",
        "fig26": "fig26_non_oversubscribed",
        "fig27": "fig27_send_buffer",
        "fig28": "fig28_buffer_occupancy",
        "fig29": "fig29_transfer_efficiency",
        "sec41": "sec41_identification_accuracy",
        "sec63": "sec63_lcp_threshold",
        "ext-baselines": "ext_baselines",
        "ext-buffer-model": "ext_buffer_model",
    }

    def __getitem__(self, name: str) -> Callable[..., dict]:
        from .experiments import figures
        return getattr(figures, self._names[name])

    def __iter__(self):
        return iter(self._names)

    def __len__(self) -> int:
        return len(self._names)


FIGURES = _Drivers()


def _cmd_list_schemes(_args) -> int:
    rows = [{"scheme": name} for name in sorted(SCHEMES)]
    print(format_table(rows))
    return 0


def _cmd_list_workloads(_args) -> int:
    rows = []
    for name, cdf in sorted(WORKLOADS.items()):
        rows.append({
            "workload": name,
            "mean_bytes": int(cdf.mean()),
            "pct_le_100KB": f"{cdf.fraction_below(100_000) * 100:.0f}%",
        })
    print(format_table(rows))
    return 0


def _health_label(health) -> str:
    if health.stalled:
        return "STALLED"
    if health.event_budget_exceeded:
        return "BUDGET"
    if health.completed < health.n_flows:
        return "PARTIAL"
    return "ok"


def _cell_path(template: str, scheme: str, multi: bool) -> str:
    """Per-scheme trace or checkpoint path: insert the scheme name before
    the suffix when more than one scheme runs, so files do not clobber
    each other (``c.ckpt`` -> ``c.ppt.ckpt``)."""
    if not multi:
        return template
    if "." in template.rsplit("/", 1)[-1]:
        stem, suffix = template.rsplit(".", 1)
        return f"{stem}.{scheme}.{suffix}"
    return f"{template}.{scheme}"


def _summary_rows(schemes, summaries, *, faults, health_flag):
    from .experiments.parallel import FailedTask
    rows = []
    for name, summary in zip(schemes, summaries):
        if isinstance(summary, FailedTask):
            rows.append({"scheme": name, "flows": "FAILED"})
            continue
        # the grid's own FCT row; only the flows cell differs here
        # (completed/target, where the row counts flows with an FCT)
        row = summary.row()
        row["flows"] = f"{summary.health.completed}/{summary.health.n_flows}"
        if faults is not None or health_flag:
            row["rtx"] = summary.health.retransmits_total
            row["rtos"] = summary.health.rtos_total
            row["health"] = _health_label(summary.health)
        rows.append(row)
        print(f"done: {name} ({summary.health.summary()})", file=sys.stderr)
        if summary.health.stalled:
            print(f"  stall: {summary.health.stall_reason}", file=sys.stderr)
        if summary.telemetry is not None:
            print(f"  trace: {summary.telemetry.describe()}", file=sys.stderr)
    return rows


def _report_validation(schemes, summaries) -> bool:
    broken = False
    for name, summary in zip(schemes, summaries):
        report = getattr(summary, "validation", None)
        if report is None:
            continue
        print(f"validate: {name}: {report.describe()}", file=sys.stderr)
        if not report.ok:
            broken = True
            for violation in report.violations[:10]:
                print(f"  {violation.describe()}", file=sys.stderr)
    return broken


def _cmd_resume(args) -> int:
    """``--resume``: finish a checkpointed run, bit-identical to one
    that never stopped."""
    from .experiments.parallel import RunSummary
    path = None
    if args.checkpoint_every is not None:
        path = args.checkpoint or args.resume
    try:
        result = run(resume=args.resume,
                     checkpoint_every=args.checkpoint_every,
                     checkpoint_path=path)
    except CheckpointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3
    summary = RunSummary.from_result(result)
    schemes = [result.scheme_name]
    rows = _summary_rows(schemes, [summary], faults=None,
                         health_flag=args.health)
    broken = _report_validation(schemes, [summary])
    print(format_table(rows))
    return 1 if broken else 0


#: Every flag combination ``run`` refuses, as ``(predicate over the
#: parsed args, message)`` rows checked in order before anything runs,
#: resumes or forks: the first hit prints ``error: <message>`` and
#: exits 2.
RUN_EXCLUSIONS = (
    # a non-positive interval would snapshot at every drain slice, a
    # NaN or infinite one never
    (lambda a: a.checkpoint_every is not None
     and not 0 < a.checkpoint_every < math.inf,
     "--checkpoint-every must be finite and > 0"),
    # a NaN deadline is never enforced, an infinite one overflows the
    # wait
    (lambda a: a.task_timeout is not None
     and not 0 < a.task_timeout < math.inf,
     "--task-timeout must be finite and > 0"),
    (lambda a: a.retries is not None and a.retries < 0,
     "--retries must be >= 0"),
    # a snapshot already fixes its scheme, fault plan, telemetry and
    # auditor, and finishes in this process: none of these can be
    # honoured, so none is dropped silently
    (lambda a: a.resume and (
        a.schemes is not None or a.fault or a.jobs not in (None, 0, 1)
        or a.task_timeout is not None or a.retries is not None
        or a.trace or a.trace_out or a.validate or a.validate_strict),
     "--resume finishes the snapshot's own run in-process: --schemes, "
     "--fault, --jobs, --task-timeout, --retries, --trace, --trace-out, "
     "--validate and --validate-strict cannot be combined with it"),
    (lambda a: a.checkpoint and a.checkpoint_every is None,
     "--checkpoint needs --checkpoint-every SIM_SECONDS"),
)


def _cmd_run(args) -> int:
    from .experiments.parallel import FailedTask, run_grid, scheme_grid
    from .experiments.workers import WorkerError
    from .faults.plan import FaultPlan
    from .sim.hybrid import HybridConfig
    for excluded, message in RUN_EXCLUSIONS:
        if excluded(args):
            print(f"error: {message}", file=sys.stderr)
            return 2
    if args.resume:
        return _cmd_resume(args)
    # --schemes defaults to None so the table can tell "given" apart
    schemes = {name: SCHEMES[name]
               for name in args.schemes or DEFAULT_SCHEMES}
    cdf = WORKLOADS[args.workload]
    validate = "strict" if args.validate_strict else args.validate
    faults = None
    if args.fault:
        try:
            faults = FaultPlan.parse(args.fault, seed=args.fault_seed)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    try:
        load_shape = (parse_load_shape(args.load_shape)
                      if args.load_shape else None)
        tenants = (parse_tenant_mix(args.tenant_mix)
                   if args.tenant_mix else None)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # Flows are always streamed: memory stays flat at any --flows, and a
    # stream composes with checkpoints, faults and --jobs (each worker
    # builds its own stream from the picklable spec).
    streaming = dict(stream=True, load_shape=load_shape,
                     tenants=tenants, arrivals=args.arrivals)
    # PFC + load-balancer features; all-defaults leaves the fabric
    # builder untouched so existing invocations stay bit-identical
    features = dict(lb=args.lb, lb_gap=args.lb_gap,
                    pfc_config=SIM_PFC if args.pfc else None)

    def make_scenario():
        # HybridConfig refuses a bad --hybrid-* value; built here, the
        # refusal comes out of the reference build below
        features["hybrid"] = (
            HybridConfig(size_threshold=args.hybrid_size_threshold,
                         max_epoch=args.hybrid_epoch)
            if args.hybrid else None)
        if args.soak is not None:
            return soak_scenario(
                "cli-soak", cdf, horizon=args.soak, seed=args.seed,
                faults=faults, event_budget=args.event_budget,
                **streaming, **features)
        if args.pattern == "incast":
            return incast_scenario(
                "cli", cdf, n_senders=args.incast_senders, load=args.load,
                n_flows=args.flows, size_cap=args.size_cap, seed=args.seed,
                faults=faults, event_budget=args.event_budget,
                **streaming, **features)
        return all_to_all_scenario(
            "cli", cdf, load=args.load, n_flows=args.flows,
            size_cap=args.size_cap, seed=args.seed,
            faults=faults, event_budget=args.event_budget,
            **streaming, **features)

    # Reference build in this process, before any run or fork: a bad
    # scenario parameter (ValueError) or a fault spec naming no port
    # (KeyError, raised when the plan is applied to a fabric) is refused
    # here in one line, whichever path the runs then take.  The fabric
    # is thrown away; apply() leaves the plan itself untouched, and a
    # streamed flow source stays lazy.
    try:
        reference = make_scenario()
        topo = reference.build_topology()
        if faults is not None:
            faults.apply(topo.network, topo.sim)
        reference.build_flows(topo)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc.args[0] if exc.args else exc}", file=sys.stderr)
        return 2

    # each cell writes its own trace / checkpoint file where it runs
    tasks = scheme_grid(schemes, make_scenario, [{}], observe=args.trace,
                        validate=validate)
    multi = len(tasks) > 1
    for task in tasks:
        if args.trace_out:
            task.trace_out = _cell_path(args.trace_out, task.scheme_key, multi)
        if args.checkpoint:
            task.checkpoint_path = _cell_path(args.checkpoint,
                                              task.scheme_key, multi)
            task.checkpoint_every = args.checkpoint_every
    try:
        summaries = run_grid(tasks, jobs=args.jobs, timeout=args.task_timeout,
                             retries=args.retries)
        # a broken invariant is not a cell to report and carry on past:
        # it leaves the way the unsupervised grid raises it
        for cell in summaries:
            if isinstance(cell, FailedTask) \
                    and "InvariantViolation" in cell.error.cause:
                raise cell.error
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3
    except WorkerError as exc:
        # a grid worker died with full context attached; strict-validate
        # failures keep their dedicated exit code across the fork
        if "InvariantViolation" in exc.cause:
            print(f"invariant violation: {exc}", file=sys.stderr)
            return 3
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for task, summary in zip(tasks, summaries):
        if task.trace_out and not isinstance(summary, FailedTask):
            print(f"trace: {task.scheme_key}: "
                  f"{summary.telemetry.events_kept} events -> "
                  f"{task.trace_out}", file=sys.stderr)
    failed_cells = [s for s in summaries if isinstance(s, FailedTask)]
    for failure in failed_cells:
        print(f"failed: {failure.describe()}", file=sys.stderr)
    rows = _summary_rows(schemes, summaries, faults=faults,
                         health_flag=args.health)
    broken = _report_validation(schemes, summaries)
    print(format_table(rows))
    return 1 if broken or failed_cells else 0


def _cmd_figure(args) -> int:
    fn = FIGURES[args.name]
    kwargs = {}
    if args.workload:
        # a driver takes a workload iff its signature says so
        if "workload" not in inspect.signature(fn).parameters:
            print(f"error: {args.name} has no --workload", file=sys.stderr)
            return 2
        kwargs["workload"] = args.workload
    result = fn(**kwargs)
    print(format_table(result["rows"]))
    return 0


def _cmd_tables(_args) -> int:
    from .experiments import tables
    print("Table 1 — design space")
    print(format_table(tables.table1()))
    print("\nTable 2 — workload statistics")
    print(format_table(tables.table2()))
    print("\nTable 3 — testbed parameters")
    print(format_table(tables.table3()))
    return 0


def build_parser() -> argparse.ArgumentParser:
    from .faults.plan import FAULT_KINDS
    parser = argparse.ArgumentParser(
        prog="repro", description="PPT (SIGCOMM 2024) reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-schemes").set_defaults(fn=_cmd_list_schemes)
    sub.add_parser("list-workloads").set_defaults(fn=_cmd_list_workloads)

    run_p = sub.add_parser("run", help="run schemes on a scenario")
    run_p.add_argument("--schemes", nargs="+", default=None,
                       choices=sorted(SCHEMES),
                       help=f"default: {' '.join(DEFAULT_SCHEMES)}")
    run_p.add_argument("--workload", default="web-search",
                       choices=sorted(WORKLOADS))
    run_p.add_argument("--load", type=float, default=0.5)
    run_p.add_argument("--flows", type=int, default=150)
    run_p.add_argument("--size-cap", type=int, default=2_000_000)
    run_p.add_argument("--seed", type=int, default=7)
    run_p.add_argument("--pattern", choices=["all-to-all", "incast"],
                       default="all-to-all")
    run_p.add_argument("--incast-senders", type=int, default=16)
    run_p.add_argument("--load-shape", metavar="SPEC", default=None,
                       help="modulate the arrival rate over time: "
                            "constant, diurnal[:PERIOD[:DEPTH]] or "
                            "onoff[:ON[:OFF[:OFF_LEVEL]]]")
    run_p.add_argument("--tenant-mix", metavar="SPEC", default=None,
                       help="mix several workload classes, e.g. "
                            "'web-search:3,memcached-w1:1' "
                            "(NAME:SHARE pairs against list-workloads names)")
    run_p.add_argument("--arrivals", choices=["open", "closed"],
                       default="open",
                       help="open-loop Poisson arrivals (default) or a "
                            "closed-loop fixed user pool with think times")
    run_p.add_argument(
        "--fault", action="append", metavar="SPEC",
        help="fault spec (repeatable): "
             + ", ".join(cls.spec for cls in FAULT_KINDS.values())
             + "; PORT is a name or glob like 'leaf0->spine*'")
    run_p.add_argument("--fault-seed", type=int, default=0)
    run_p.add_argument("--lb", choices=list(LB_MODES), default="ecmp",
                       help="switch load balancer: per-flow ECMP (default, "
                            "bit-identical to earlier releases), flowlet "
                            "switching, or CONGA-style least-congested-path")
    run_p.add_argument("--lb-gap", type=float, metavar="SECONDS",
                       default=None,
                       help="flowlet idle gap / CONGA re-pin gap in seconds "
                            f"(default {DEFAULT_FLOWLET_GAP:g})")
    run_p.add_argument("--pfc", action="store_true",
                       help="enable lossless Ethernet: per-priority PFC "
                            "XOFF/XON on every switch with headroom so the "
                            "lossless class never drops (RoCEv2-style; "
                            "pair with dcqcn/hpcc)")
    run_p.add_argument("--hybrid", action="store_true",
                       help="enable the flow-level fast path: large "
                            "uncontended flows advance analytically at "
                            "max-min fair rates instead of packet by packet "
                            "(see docs/hybrid.md for the accuracy envelope)")
    run_p.add_argument("--hybrid-size-threshold", type=int,
                       metavar="BYTES", default=1_000_000,
                       help="flows at least this big are candidates for "
                            "flow-level abstraction (default 1MB)")
    run_p.add_argument("--hybrid-epoch", type=float, metavar="SECONDS",
                       default=0.005,
                       help="max interval between hybrid congestion epochs "
                            "while packet traffic coexists (default 5ms)")
    run_p.add_argument("--event-budget", type=int, default=None,
                       help="abort a run after this many simulator events")
    run_p.add_argument("--jobs", type=int, default=1,
                       help="worker processes to fan the schemes across "
                            "(-1 = one per core); results are merged in "
                            "deterministic order, identical to --jobs 1")
    run_p.add_argument("--health", action="store_true",
                       help="include run-health columns in the output table")
    run_p.add_argument("--trace", action="store_true",
                       help="run with repro.obs telemetry and print a "
                            "per-scheme trace summary")
    run_p.add_argument("--trace-out", metavar="PATH", default=None,
                       help="export the event trace as JSONL (implies "
                            "--trace; with several schemes the scheme "
                            "name is inserted into PATH)")
    run_p.add_argument("--validate", action="store_true",
                       help="run the repro.validate invariant auditor; "
                            "violations are reported per scheme and make "
                            "the command exit 1")
    run_p.add_argument("--validate-strict", action="store_true",
                       help="like --validate but abort at the first broken "
                            "invariant (exit 3)")
    run_p.add_argument("--soak", type=float, metavar="HORIZON", default=None,
                       help="run the long-horizon soak scenario for this "
                            "many simulated seconds (faults fire "
                            "periodically throughout; see docs/robustness.md)")
    run_p.add_argument("--checkpoint", metavar="PATH", default=None,
                       help="write periodic resumable snapshots to PATH "
                            "(requires --checkpoint-every; with several "
                            "schemes the scheme name is inserted into "
                            "PATH)")
    run_p.add_argument("--checkpoint-every", type=float,
                       metavar="SIM_SECONDS", default=None,
                       help="simulated seconds between checkpoint writes")
    run_p.add_argument("--resume", metavar="PATH", default=None,
                       help="resume a checkpointed run from PATH and finish "
                            "it (bit-identical to a run that never stopped); "
                            "combine with --checkpoint-every to keep "
                            "checkpointing")
    run_p.add_argument("--task-timeout", type=float, metavar="SECONDS",
                       default=None,
                       help="supervise the grid: kill and retry any cell "
                            "whose attempt exceeds this wall-clock budget "
                            "(cells then run in forked workers even at "
                            "--jobs 1)")
    run_p.add_argument("--retries", type=int, default=None,
                       help="supervise the grid: per-cell retry budget "
                            "after the first attempt (default 2 when "
                            "supervision is active); cells that exhaust it "
                            "are quarantined, not fatal")
    run_p.set_defaults(fn=_cmd_run)

    fig_p = sub.add_parser("figure", help="regenerate a paper figure")
    fig_p.add_argument("name", choices=sorted(FIGURES))
    fig_p.add_argument("--workload", default=None,
                       choices=sorted(WORKLOADS))
    fig_p.set_defaults(fn=_cmd_figure)

    sub.add_parser("tables").set_defaults(fn=_cmd_tables)
    return parser


def main(argv: List[str] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
