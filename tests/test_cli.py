"""Tests for the command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import FIGURES, SCHEME_FACTORIES, build_parser, main
from repro.experiments.parallel import run_grid
from repro.experiments.runner import run


def test_list_schemes(capsys):
    assert main(["list-schemes"]) == 0
    out = capsys.readouterr().out
    for name in ("ppt", "dctcp", "homa", "ndp", "expresspass"):
        assert name in out


def test_list_workloads(capsys):
    assert main(["list-workloads"]) == 0
    out = capsys.readouterr().out
    assert "web-search" in out
    assert "data-mining" in out


def test_tables(capsys):
    assert main(["tables"]) == 0
    out = capsys.readouterr().out
    assert "Table 1" in out and "PPT" in out
    assert "Table 3" in out and "RTO_min" in out


def test_run_small(capsys):
    assert main(["run", "--schemes", "dctcp", "--flows", "10",
                 "--size-cap", "200000"]) == 0
    out = capsys.readouterr().out
    assert "dctcp" in out
    assert "10/10" in out


def test_run_incast_pattern(capsys):
    assert main(["run", "--schemes", "dctcp", "--flows", "8",
                 "--incast", "4",
                 "--size-cap", "100000"]) == 0
    assert "8/8" in capsys.readouterr().out


def test_figure_identification(capsys):
    assert main(["figure", "sec41"]) == 0
    out = capsys.readouterr().out
    assert "memcached" in out


def test_every_scheme_factory_constructs():
    for name, factory in SCHEME_FACTORIES.items():
        scheme = factory()
        assert hasattr(scheme, "start_flow"), name


def test_every_figure_registered_is_callable():
    for name, fn in FIGURES.items():
        assert callable(fn), name


def test_parser_rejects_unknown_scheme():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["run", "--schemes", "not-a-scheme"])


def test_parser_rejects_unknown_figure():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["figure", "fig99"])


# Each command line once printed the table of a different run and
# exited 0: the flags it quotes were dropped without a word.  Where an
# old flag is gone, the line is spelt with the commands and flags that
# replaced it; each flag is now one the command does not take.
IGNORED_ONCE = {
    "soak-with-sizing": ["soak", "0.3", "--flows", "3", "--incast", "2",
                         "--load", "0.9", "--size-cap", "1000"],
    "resume-with-scenario": ["resume", "X", "--flows", "99", "--workload",
                             "data-mining", "--pfc", "--lb", "conga",
                             "--hybrid", "--seed", "9", "--event-budget",
                             "10"],
    "incast-senders-without-incast": ["run", "--incast-senders", "3"],
    "hybrid-knobs-without-hybrid": ["run", "--hybrid-epoch", "1",
                                    "--hybrid-size-threshold", "5"],
    # soak fixes its load, so --load is refused; with abbreviations off
    # it cannot stand for a longer flag either
    "soak-load-abbreviation": ["soak", "0.3", "--load", "0.9"],
    # deleted, not ignored: every workload is the paper's open-loop
    # Poisson process at a constant load (§6.1)
    "load-shape": ["run", "--load-shape", "diurnal"],
    "closed-loop-arrivals": ["run", "--arrivals", "closed"],
}


@pytest.mark.parametrize("row", list(IGNORED_ONCE))
def test_a_flag_the_command_does_not_take_is_refused(row, capsys):
    with pytest.raises(SystemExit) as exit_:
        main(IGNORED_ONCE[row])
    assert exit_.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines()
              if "error:" in line]
    assert len(errors) == 1 and "unrecognized arguments" in errors[0]


def _library_message(call):
    with pytest.raises(ValueError) as refusal:
        call()
    return str(refusal.value)


# each value or pair rule, given to the CLI and to the library function
# that owns it: (the flags, the library call with the same values)
OWNER_RULES = {
    "checkpoint-every-negative": (
        ["--checkpoint", "c.ckpt", "--checkpoint-every", "-1"],
        lambda: run(checkpoint_every=-1.0, checkpoint_path="c.ckpt")),
    "checkpoint-without-every": (
        ["--checkpoint", "c.ckpt"],
        lambda: run(checkpoint_path="c.ckpt")),
    "every-without-checkpoint": (
        ["--checkpoint-every", "0.001"],
        lambda: run(checkpoint_every=0.001)),
    "task-timeout-negative": (
        ["--task-timeout", "-5"], lambda: run_grid([], timeout=-5.0)),
    "retries-negative": (["--retries", "-1"],
                         lambda: run_grid([], retries=-1)),
}


@pytest.mark.parametrize("row", list(OWNER_RULES))
def test_the_cli_refuses_in_the_owner_rules_words(row, capsys):
    """``run`` prints the message ``run()`` or ``run_grid()`` raises for
    the same values, word for word, before anything runs."""
    flags, call = OWNER_RULES[row]
    assert main(["run", "--schemes", "dctcp", "--flows", "8"] + flags) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {_library_message(call)}\n"
    assert captured.out == ""


@pytest.mark.parametrize("flags", [
    ["--fault", "bogus"], ["--jobs", "4"], ["--task-timeout", "5"],
    ["--retries", "1"], ["--trace"], ["--trace-out", "t.jsonl"],
    ["--validate"], ["--validate-strict"], ["--schemes", "ppt"],
])
def test_resume_refuses_what_the_snapshot_fixes(flags, capsys):
    """Nothing is dropped silently: ``resume`` takes no flag a snapshot
    already fixes or cannot honour, so argparse refuses each before the
    (here missing) file is even opened."""
    with pytest.raises(SystemExit) as exit_:
        main(["resume", "missing.ckpt"] + flags)
    assert exit_.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_resume_checks_flag_values_first(capsys):
    """A ``--checkpoint-every -1`` used to rewrite the resume file at
    every drain slice; it is refused, in ``run()``'s words, before the
    file is opened."""
    assert main(["resume", "soak.ckpt", "--checkpoint-every", "-1"]) == 2
    assert capsys.readouterr().err == "error: " + _library_message(
        lambda: run(resume="soak.ckpt", checkpoint_every=-1.0,
                    checkpoint_path="soak.ckpt")) + "\n"


def test_resume_checkpoints_to_its_own_snapshot(capsys):
    """``--checkpoint-every`` needs no ``--checkpoint`` with ``resume``:
    the resumed run rewrites the snapshot it finishes."""
    assert main(["resume", "missing.ckpt",
                 "--checkpoint-every", "0.001"]) == 2
    assert capsys.readouterr().err.startswith(
        "error: cannot open checkpoint missing.ckpt")


def test_command_flag_counts():
    """``run`` takes 25 flags, ``soak`` the 21 that do not size the
    traffic, ``resume`` the three a snapshot leaves open."""
    commands = build_parser()._subparsers._group_actions[0].choices

    def flags(name):
        return sorted(option for action in commands[name]._actions
                      for option in action.option_strings
                      if option != "-h" and option != "--help")

    assert len(flags("run")) == 25
    assert sorted(set(flags("run")) - set(flags("soak"))) == [
        "--flows", "--incast", "--load", "--size-cap"]
    assert flags("resume") == ["--checkpoint", "--checkpoint-every",
                               "--health"]


def test_figure_without_a_workload_parameter_refuses_the_flag(capsys):
    """``--workload`` used to be ignored by every driver outside a
    hand-kept set; the driver's signature decides now."""
    assert main(["figure", "sec41", "--workload", "data-mining"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: sec41 has no --workload\n"
    assert captured.out == ""


def test_figure_takes_list_workloads_names(capsys):
    """``memcached-w1`` is the ``list-workloads`` name; the figure
    drivers used to keep a table of their own that called it
    ``memcached``."""
    assert main(["figure", "fig12", "--workload", "memcached-w1"]) == 0
    out = capsys.readouterr().out
    assert out.count("n=0") == 6  # no flow of W1 is large, and it says so
    with pytest.raises(SystemExit):
        main(["figure", "fig12", "--workload", "memcached"])


# what the reference build in the parent refuses: a scenario parameter
# out of range, and a fault spec that parses but names no port of the
# fabric it is applied to
REFUSED_SCENARIOS = {
    "n_flows must be positive": ["--flows", "0"],
    "load out of range: 0.0": ["--load", "0"],
    "no port matches 'nosuch->x'":
        ["--fault", "flap:nosuch->x:0.001:0.001:0.001"],
}


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("message", list(REFUSED_SCENARIOS))
def test_bad_scenario_is_one_line_whatever_the_path(message, jobs, capsys):
    """Refused before any run or fork, so the in-process path and the
    forked grid print the identical single line and exit 2 — no
    traceback, no worker traceback."""
    argv = ["run", "--schemes", "dctcp", "ppt", "--jobs", jobs] \
        + REFUSED_SCENARIOS[message]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_a_key_error_inside_a_run_is_not_an_error_line(monkeypatch):
    """Only the reference build's lookups are refusals; a ``KeyError``
    out of the run itself is a bug and must surface as one."""
    def broken_run_grid(tasks, **policy):
        raise KeyError("a real bug")

    monkeypatch.setattr("repro.experiments.parallel.run_grid",
                        broken_run_grid)
    with pytest.raises(KeyError, match="a real bug"):
        main(["run", "--schemes", "dctcp", "--flows", "8"])


@pytest.mark.parametrize("policy", [
    [], ["--jobs", "2"], ["--task-timeout", "60"], ["--retries", "1"],
    ["--jobs", "2", "--task-timeout", "60"],
], ids=" ".join)
def test_strict_validate_failure_is_exit_3_whatever_the_policy(
        policy, monkeypatch, capsys):
    """A broken invariant keeps its ``invariant violation:`` line and
    exit 3 in-process, across the fork, and when the supervised grid
    hands the cell back as a ``FailedTask`` (which used to print a
    ``failed:`` line and a table, and exit 1)."""
    from repro.experiments import workers
    from repro.transport.dctcp import Dctcp

    healthy = Dctcp.configure_network

    def cooked_ledger(self, network):
        healthy(self, network)
        network.ports[0].mux.occupancy += 1

    monkeypatch.setattr(Dctcp, "configure_network", cooked_ledger)
    monkeypatch.setattr(workers, "BACKOFF_BASE", 0.01)
    assert main(["run", "--schemes", "dctcp", "homa", "--flows", "10",
                 "--validate-strict"] + policy) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("invariant violation: ")
    assert "mux-occupancy-sum" in captured.err
    assert "failed: " not in captured.err
    assert captured.out == ""


def _traced_run(out_dir, capsys, *policy):
    """``--trace-out`` over two schemes: the table, the per-scheme
    files' bytes, and the ``trace:`` export lines."""
    out_dir.mkdir()
    assert main(["run", "--schemes", "ppt", "dctcp", "--flows", "40",
                 "--trace-out", str(out_dir / "t.jsonl"), *policy]) == 0
    captured = capsys.readouterr()
    files = {name: (out_dir / f"t.{name}.jsonl").read_bytes()
             for name in ("ppt", "dctcp")}
    exports = [line.replace(str(out_dir), "DIR")
               for line in captured.err.splitlines()
               if line.startswith("trace: ")]
    return captured.out, files, exports


@pytest.mark.parametrize("policy", [
    ["--jobs", "2"], ["--task-timeout", "300"]], ids=" ".join)
def test_trace_out_files_do_not_depend_on_the_policy(
        policy, tmp_path, capsys):
    """Each cell writes its own trace where it runs — in this process,
    in a forked worker or under the supervisor — and the files, the
    table and the export lines are the same bytes."""
    serial = _traced_run(tmp_path / "serial", capsys)
    _, files, exports = serial
    events = {name: len(data.splitlines()) for name, data in files.items()}
    assert exports == [f"trace: {name}: {events[name]} events -> "
                       f"DIR/t.{name}.jsonl" for name in ("ppt", "dctcp")]
    assert _traced_run(tmp_path / "other", capsys, *policy) == serial


SRC = Path(__file__).resolve().parents[1] / "src"

# one bad input per row, each refused before anything runs: exit 2 and
# one error line.  A subprocess with a timeout, because one of them used
# to livelock (a zero hybrid epoch re-armed its epoch at the same
# instant).
RUN = ["run", "--schemes", "dctcp", "--flows", "20"]
REFUSED_INPUTS = {
    "hybrid-epoch-zero": (RUN + ["--hybrid", ":0"], "max_epoch"),
    "hybrid-epoch-negative": (RUN + ["--hybrid", "1000000:-1"],
                              "max_epoch"),
    "hybrid-size-threshold-negative": (
        RUN + ["--hybrid", "-1"], "size_threshold"),
    "size-cap-zero": (RUN + ["--size-cap", "0"], "size_cap"),
    "event-budget-zero": (RUN + ["--event-budget", "0"], "event_budget"),
    "event-budget-negative": (RUN + ["--event-budget", "-5"],
                              "event_budget"),
    "fault-trailing-field": (
        RUN + ["--fault", "down:leaf0->spine0:0.001:0.002:zzz"],
        "extra field"),
    "fault-nan-start": (RUN + ["--fault", "down:leaf0->spine0:nan:0.002"],
                        "start time nan"),
    # the corruption fault is gone: its spec is any unknown kind
    "fault-corrupt-kind": (RUN + ["--fault", "corrupt:leaf0->spine0:0.01"],
                           "unknown fault kind 'corrupt'"),
    "tenant-share-nan": (RUN + ["--tenant-mix", "web-search:nan"],
                         "share must be positive"),
    "tenant-share-inf": (RUN + ["--tenant-mix", "web-search:inf"],
                         "share must be positive"),
    # NaN and infinity pass a ``<= 0`` check: a NaN interval or deadline
    # was never enforced, an infinite soak horizon laid fault events
    # forever, and a negative sender count sliced the host list
    "checkpoint-every-nan": (
        RUN + ["--checkpoint", "c.ckpt", "--checkpoint-every", "nan"],
        "checkpoint_every must be finite"),
    "checkpoint-every-inf": (
        RUN + ["--checkpoint", "c.ckpt", "--checkpoint-every", "inf"],
        "checkpoint_every must be finite"),
    "task-timeout-nan": (RUN + ["--task-timeout", "nan"],
                         "timeout must be finite"),
    "task-timeout-inf": (RUN + ["--task-timeout", "inf"],
                         "timeout must be finite"),
    "soak-inf": (["soak", "inf", "--schemes", "dctcp"], "horizon"),
    "soak-nan": (["soak", "nan", "--schemes", "dctcp"], "horizon"),
    "lb-gap-nan": (RUN + ["--lb", "flowlet", "--lb-gap", "nan"],
                   "flowlet gap"),
    # ECMP has no flowlets: the gap changed nothing and was ignored
    "lb-gap-under-ecmp": (RUN + ["--lb-gap", "2e-5"],
                          "needs lb 'flowlet' or"),
    "incast-senders-negative": (RUN + ["--incast", "-3"], "n_senders"),
    "incast-senders-above-hosts": (RUN + ["--incast", "500"], "n_senders"),
}


@pytest.mark.parametrize("row", list(REFUSED_INPUTS))
def test_bad_input_is_refused_in_one_line(row, tmp_path):
    argv, fragment = REFUSED_INPUTS[row]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "repro"] + argv,
            capture_output=True, text=True, timeout=30, env=env,
            cwd=tmp_path)
    except subprocess.TimeoutExpired:
        pytest.fail(f"{row}: still running after 30 s")
    errors = [line for line in proc.stderr.splitlines()
              if line.startswith("error:")]
    assert "Traceback" not in proc.stderr
    assert proc.returncode == 2, proc.stderr
    assert len(errors) == 1, proc.stderr
    assert fragment in errors[0]
