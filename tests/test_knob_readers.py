"""The knob guard: every scenario knob, run flag and fault kind has a
reader, and every packet field is read.

A knob that nothing outside ``tests/`` reads can break or drift
unnoticed, and it widens every sweep that draws over the knobs.  So
each optional ``Scenario`` field, each keyword-only parameter of
``scenarios._traffic_scenario``, each option of the ``run`` and
``soak`` commands and each ``faults.plan.FAULT_KINDS`` kind is listed
here with its reader and the one question that reader asks of it.  A
reader is a claim of ``claims.CLAIMS`` (whose figure driver must contain
the named text), a file under ``benchmarks/`` or
``src/repro/validate/matrix.py`` (which must contain it), or a step of
``.github/workflows/ci.yml`` (whose body must contain it).  A flag may instead name the scenario keyword it forwards
(``cli._cmd_run`` must pass it) and inherits that keyword's reader.

The guard fails on an unlisted knob, on an entry for a knob that no
longer exists, and on a reader that does not contain its text.  A
``Packet`` slot has no table: some module under ``src/repro`` other
than ``sim/packet.py`` must read it off a packet, or it is write-only
state every packet pays for.  No simulation runs.
"""

import ast
import dataclasses
import inspect
import re
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple, Optional

from repro import cli
from repro.experiments.claims import CLAIMS
from repro.experiments.runner import Scenario
from repro.experiments.scenarios import _traffic_scenario, soak_fault_plan
from repro.faults.plan import FAULT_KINDS
from repro.sim.packet import Packet

ROOT = Path(__file__).resolve().parent.parent
MATRIX = "src/repro/validate/matrix.py"
SOAK_BENCH = "benchmarks/bench_ext_stream_soak.py"


class Reader(NamedTuple):
    kind: str       # "claim", "file", "ci" or "forwards"
    where: str      # claim id, repo-relative path, CI step name or keyword
    text: str       # what the reader must contain
    question: str   # the one question it asks ("" when forwarding)


def claim(claim_id, text, question):
    return Reader("claim", claim_id, text, question)


def file(path, text, question):
    return Reader("file", path, text, question)


def ci(step, text, question):
    return Reader("ci", step, text, question)


def forwards(keyword):
    return Reader("forwards", keyword, f"{keyword}=", "")


# optional Scenario fields and _traffic_scenario's keyword-only
# parameters (the two overlap: the builder passes five of them through)
SCENARIO = {
    "load": claim(
        "fig08-ws-0.7-overall-dctcp", "load=",
        "Does PPT keep the lowest overall FCT at 0.7 load as at 0.5?"),
    "seed": claim(
        "fig12-ws-s23-overall-rc3", "seed=",
        "Does PPT's Fig 12 lead over RC3 hold on another seed?"),
    "size_cap": file(
        "benchmarks/bench_ext_uncapped_regime.py", "size_cap=None",
        "Does the wall time per event stay flat across seeds at "
        "uncapped Web Search sizes?"),
    "config": claim(
        "fig27-small-avg-128KB-2GB", "config=",
        "Do PPT's small-flow FCTs hold with a 128KB send buffer?"),
    "max_time": file(
        MATRIX, "max_time=MAX_TIME",
        "Do the per-slice sender laws see senders in flight?"),
    "faults": file(
        "benchmarks/bench_ext_fault_resilience.py", "faults=faults",
        "Do the schemes finish, and recover, when leaf0's uplinks flap?"),
    "event_budget": file(
        MATRIX, "event_budget=DEFAULT_EVENT_BUDGET",
        "Does a runaway matrix cell stop at a bounded event count?"),
    "stream": file(
        "benchmarks/bench_ext_stream_soak.py", "stream=True",
        "Is a validated soak fed from a stream clean and complete?"),
    "tenants": file(
        "benchmarks/bench_ext_stream_soak.py", "tenant_mix_stream",
        "Does a two-class tenant mix drain 2M flows at flat RSS?"),
    "lb": file(
        MATRIX, 'lb="conga"',
        "Do flowlet and CONGA balancing keep every invariant?"),
    "lb_gap": file(
        MATRIX, "lb_gap=20e-6",
        "Do the flowlet laws hold when flows re-pin mid-flow?"),
    "pfc_config": file(
        MATRIX, "pfc_config=SIM_PFC",
        "Does PFC keep pause state consistent for DCQCN and HPCC?"),
    "hybrid": file(
        MATRIX, "hybrid=HybridConfig",
        "Does the flow-level fast path keep every conservation law?"),
}

# the options of the run and soak commands
FLAGS = {
    "--health": ci(
        "Smoke-test fault injection via the CLI", "--health",
        "Does each scheme report the flap window and the drops it made?"),
    "--checkpoint": ci(
        "Soak smoke under --validate with checkpoint/resume",
        "--checkpoint /tmp/soak.ckpt",
        "Does a validated soak resume from its snapshot?"),
    "--checkpoint-every": ci(
        "Supervised two-scheme checkpoints resume one file each",
        "--checkpoint-every 5",
        "Does each forked cell write a snapshot that resumes?"),
    "--schemes": ci(
        "Parallel and supervised CLI smokes", "--schemes ppt dctcp",
        "Is a two-scheme table the same under every grid policy?"),
    "--workload": ci(
        "Streaming CLI smoke (--workload and --tenant-mix)",
        "--workload data-mining",
        "Does a streamed run of another size distribution finish "
        "every flow?"),
    "--seed": forwards("seed"),
    "--tenant-mix": forwards("tenants"),
    "--fault": ci(
        "Smoke-test fault injection via the CLI", "--fault",
        "Does each scheme report the flap window and the drops it made?"),
    "--fault-seed": ci(
        "A seeded loss fault through the CLI (--fault-seed)",
        "--fault-seed 2",
        "Does the same seed give the same run, and another seed another?"),
    "--lb": ci(
        "Flowlet / CONGA load-balancer validated smoke", "--lb conga",
        "Does a CONGA-balanced run pass the auditor?"),
    "--lb-gap": forwards("lb_gap"),
    "--pfc": ci(
        "Lossless (PFC) validated smoke", "--pfc",
        "Does a PFC incast pass the lossless laws?"),
    "--hybrid": ci(
        "Hybrid validated CLI smoke", "--hybrid",
        "Does a hybrid run pass the auditor?"),
    "--event-budget": forwards("event_budget"),
    "--jobs": ci(
        "Parallel and supervised CLI smokes", "--jobs 2",
        "Is a two-worker table the same as the supervised one?"),
    "--trace": ci(
        "Trace-export CLI smoke", "--trace",
        "Does an observed run export a trace that parses back?"),
    "--trace-out": ci(
        "Trace-export CLI smoke", "--trace-out",
        "Are serial and forked trace files the same bytes?"),
    "--validate": ci(
        "Validated CLI smoke", "--validate",
        "Does a clean run pass the auditor?"),
    "--validate-strict": ci(
        "Validated CLI smoke", "--validate-strict",
        "Does a clean run pass the aborting auditor?"),
    "--task-timeout": ci(
        "Parallel and supervised CLI smokes", "--task-timeout 300",
        "Is a supervised table the same as a plain one?"),
    "--retries": ci(
        "Parallel and supervised CLI smokes", "--retries 2",
        "Is a supervised table with retries the same as a plain one?"),
    "--load": forwards("load"),
    "--flows": ci(
        "Smoke-test fault injection via the CLI", "--flows 40",
        "Does a 40-flow run span the flap window?"),
    "--size-cap": forwards("size_cap"),
    "--incast": ci(
        "Lossless (PFC) validated smoke", "--incast 16",
        "Does a 16-to-1 incast pass the lossless laws?"),
}


# the fault kinds of --fault and FaultPlan.parse.  A kind the soak bench
# reads is one that soak_fault_plan's rotation builds (checked below);
# the bench runs that plan through soak_scenario.
FAULTS = {
    "flap": ci(
        "Smoke-test fault injection via the CLI", '--fault "flap:',
        "Does each scheme report the flap window and the drops it made?"),
    "loss": ci(
        "A seeded loss fault through the CLI (--fault-seed)",
        '--fault "loss:',
        "Does the same seed give the same run, and another seed another?"),
    "pfcstorm": ci(
        "PFC storm fault smoke", '--fault "pfcstorm:',
        "Do the flows of a PFC incast finish once a pause storm ends?"),
    "down": file(
        SOAK_BENCH, "soak_scenario",
        "Does a validated streamed soak complete every flow across the "
        "rotation's blackout of sw0->host1 at 150 s?"),
    "degrade": ci(
        "Soak smoke under --validate with checkpoint/resume", "soak 800",
        "Does a validated, checkpointed soak stay clean through the "
        "rotation's rate degrade of sw0->host3 at 750 s?"),
}


def scenario_knobs() -> set:
    optional = {f.name for f in dataclasses.fields(Scenario)
                if f.default is not dataclasses.MISSING
                or f.default_factory is not dataclasses.MISSING}
    keywords = {name for name, param
                in inspect.signature(_traffic_scenario).parameters.items()
                if param.kind is param.KEYWORD_ONLY}
    return optional | keywords


def run_flags() -> set:
    commands = cli.build_parser()._subparsers._group_actions[0].choices
    return {option for name in ("run", "soak")
            for action in commands[name]._actions
            for option in action.option_strings
            if option.startswith("--") and option != "--help"}


def listing_problems(listed, knobs, what) -> list:
    """One line per knob ``listed`` misses and per entry naming no knob."""
    return ([f"unlisted {what}: {knob}" for knob in sorted(knobs - set(listed))]
            + [f"stale {what} entry: {name}"
               for name in sorted(set(listed) - knobs)])


@lru_cache(maxsize=None)
def ci_steps() -> dict:
    """Each named step of the workflow -> the text of its body."""
    text = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    steps = {}
    for chunk in re.split(r"\n\s*- (?=name:|uses:)", text)[1:]:
        head, _, body = chunk.partition("\n")
        if head.startswith("name:"):
            # the body ends where the next job (or top-level key) begins
            steps[head[len("name:"):].strip()] = re.split(
                r"\n(?=\S|  \S)", body)[0]
    return steps


def _reader_text(reader) -> Optional[str]:
    """The text ``reader`` names, or ``None`` if it names nothing."""
    if reader.kind == "claim":
        found = [c for c in CLAIMS if c.id == reader.where]
        return inspect.getsource(cli.FIGURES[found[0].figure]) \
            if found else None
    if reader.kind == "file":
        path = ROOT / reader.where
        inside = reader.where.startswith("benchmarks/") \
            or reader.where == MATRIX
        return path.read_text() if inside and path.is_file() else None
    if reader.kind == "ci":
        return ci_steps().get(reader.where)
    if reader.kind == "forwards":
        return inspect.getsource(cli._cmd_run) \
            if reader.where in SCENARIO else None
    return None


def reader_problems(table) -> list:
    """One line per entry whose reader is missing, lacks its text, or
    states no one-line question."""
    problems = []
    for knob, reader in table.items():
        text = _reader_text(reader)
        if text is None:
            problems.append(f"{knob}: no {reader.kind} {reader.where!r}")
        elif reader.text not in text:
            problems.append(f"{knob}: {reader.kind} {reader.where!r} "
                            f"does not contain {reader.text!r}")
        if reader.kind != "forwards" and not (
                reader.question.endswith("?") and "\n" not in reader.question):
            problems.append(f"{knob}: no one-line question")
    return problems


def test_every_scenario_knob_is_listed():
    assert listing_problems(SCENARIO, scenario_knobs(), "scenario knob") == []


def test_every_run_and_soak_flag_is_listed():
    assert listing_problems(FLAGS, run_flags(), "flag") == []


def test_every_fault_kind_is_listed():
    assert listing_problems(FAULTS, set(FAULT_KINDS), "fault kind") == []


def test_every_reader_contains_its_text():
    assert reader_problems(SCENARIO) == []
    assert reader_problems(FLAGS) == []
    assert reader_problems(FAULTS) == []


def test_the_soak_rotation_builds_the_kinds_the_soak_bench_reads():
    rotation = inspect.getsource(soak_fault_plan)
    assert [kind for kind, reader in FAULTS.items()
            if reader.where == SOAK_BENCH
            and f"{FAULT_KINDS[kind].__name__}(" not in rotation] == []


def test_every_packet_slot_is_read():
    """Some module but ``sim/packet.py`` loads each ``Packet`` slot as
    ``<expr>.<slot>`` with ``<expr>`` other than ``self``."""
    package = ROOT / "src" / "repro"
    loaded = set()
    for path in package.rglob("*.py"):
        if path == package / "sim" / "packet.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Load)
                    and not (isinstance(node.value, ast.Name)
                             and node.value.id == "self")):
                loaded.add(node.attr)
    assert [name for name in Packet.__slots__ if name not in loaded] == []


def test_a_scenario_knob_is_read_directly():
    """Forwarding is for flags: a keyword names the reader itself."""
    assert [knob for knob, reader in SCENARIO.items()
            if reader.kind == "forwards"] == []


def test_the_guard_reports_what_it_guards_against():
    listed = dict(SCENARIO)
    del listed["seed"]
    listed["burst_factor"] = SCENARIO["load"]
    assert listing_problems(listed, scenario_knobs(), "scenario knob") == [
        "unlisted scenario knob: seed",
        "stale scenario knob entry: burst_factor"]
    assert reader_problems({
        "--a": ci("Validated CLI smoke", "--burst", "Bursts?"),
        "--b": forwards("burst_factor"),
        "--c": file("tests/test_cli.py", "--flows", "Read by a test?"),
        "--d": claim("no-such-claim", "load=", "A claim?"),
        "--e": claim("fig12-ws-s23-overall-rc3", "seed=", "no question"),
    }) == [
        "--a: ci 'Validated CLI smoke' does not contain '--burst'",
        "--b: no forwards 'burst_factor'",
        "--c: no file 'tests/test_cli.py'",
        "--d: no claim 'no-such-claim'",
        "--e: no one-line question",
    ]
