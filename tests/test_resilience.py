"""Checkpoint/resume: bit-identity, versioning, atomicity, CLI plumbing.

The headline guarantee under test: a run stopped at any checkpoint and
resumed later is **bit-identical** to a run that never stopped — same
per-flow FCTs (down to the float repr), same event count, same telemetry
event trace, same validation verdict.  The property test drives that
across schemes (DCTCP, PPT, Homa, NDP), topologies and mid-run fault
plans; the double-restart test kills and resumes the same run twice.
"""

import io
import math
import os
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import SCHEME_FACTORIES
from repro.experiments import figures
from repro.experiments.runner import run
from repro.experiments.scenarios import (
    all_to_all_scenario,
    incast_scenario,
    sim_fabric,
    soak_fault_plan,
    soak_scenario,
)
from repro.faults import FaultPlan, LinkDown, PacketLoss
from repro.metrics.probe import Probe
from repro.resilience import (
    CHECKPOINT_FORMAT,
    CHECKPOINT_VERSION,
    CheckpointError,
    RunState,
    inspect_checkpoint,
    load_checkpoint,
    save_checkpoint,
)
from repro.transport.base import MessageSender
from repro.transport.dctcp import Dctcp
from repro.workloads.distributions import MEMCACHED_W1, WEB_SEARCH

FABRICS = {
    "tiny": lambda: sim_fabric(n_leaf=2, n_spine=2, hosts_per_leaf=2),
    "wide": lambda: sim_fabric(n_leaf=2, n_spine=1, hosts_per_leaf=4),
}

PLANS = {
    "none": None,
    "down": FaultPlan([LinkDown("leaf0->spine0", 0.0001, 0.001)]),
    "loss": FaultPlan([PacketLoss("leaf*->spine0", 0.02, 0.0, 0.01)], seed=5),
}


def scenario_for(fabric_key, plan_key, seed):
    # max_time=0.02 puts drain slices at the 100us floor (max_time/200,
    # floored at 1e-4); the runs here last >= 250us, so every run spans
    # several slices and checkpoint_every=0.0 always lands at least one
    # snapshot before the heap empties
    return all_to_all_scenario(
        f"ckpt-{fabric_key}-{plan_key}-{seed}", WEB_SEARCH, load=0.5,
        n_flows=12, size_cap=150_000, seed=seed,
        fabric=FABRICS[fabric_key](), faults=PLANS[plan_key], max_time=0.02)


def fct_fingerprint(result):
    # repr() captures every bit of the float — equality is bit-identity
    return [(f.flow_id, f.completed, repr(f.fct)) for f in result.flows]


def trace_fingerprint(telemetry):
    return [e.to_dict() for e in telemetry.iter_events()]


@pytest.fixture
def ckpt_path(tmp_path):
    return str(tmp_path / "run.ckpt")


# -- bit-identity ----------------------------------------------------------


@settings(max_examples=8, deadline=None)
@given(scheme=st.sampled_from(["dctcp", "ppt", "homa", "ndp"]),
       fabric=st.sampled_from(sorted(FABRICS)),
       plan=st.sampled_from(sorted(PLANS)),
       seed=st.integers(min_value=1, max_value=4))
def test_resume_bit_identical_property(tmp_path_factory, scheme, fabric,
                                       plan, seed):
    """checkpoint -> resume == straight-through, across schemes,
    topologies and mid-run fault plans."""
    path = str(tmp_path_factory.mktemp("ck") / "run.ckpt")
    factory = SCHEME_FACTORIES[scheme]

    straight = run(factory(), scenario_for(fabric, plan, seed))
    checked = run(factory(), scenario_for(fabric, plan, seed),
                  checkpoint_every=0.0, checkpoint_path=path)
    # checkpointing itself must be invisible
    assert fct_fingerprint(checked) == fct_fingerprint(straight)
    assert checked.wall_events == straight.wall_events

    if not os.path.exists(path):
        # run finished within one drain slice; nothing left to resume
        return
    state = load_checkpoint(path)
    if state.sim.events_run >= straight.wall_events:
        return
    resumed = run(resume=state)
    assert fct_fingerprint(resumed) == fct_fingerprint(straight)
    assert resumed.wall_events == straight.wall_events
    assert resumed.health == straight.health


def _resume_from_every_checkpoint(tmp_path, factory, seed=3, scenario=None):
    """Run ``factory()`` on ``scenario()`` (default: the lossy tiny
    fabric) keeping every snapshot, resume each one to the end and check
    it against the straight run; returns the snapshot paths."""
    path = str(tmp_path / "run.ckpt")
    copies = []
    scenario = scenario or (lambda: scenario_for("tiny", "loss", seed))

    real_save = save_checkpoint

    def hoarding_save(state, p):
        header = real_save(state, p)
        copies.append(tmp_path / f"copy{len(copies)}.ckpt")
        import shutil
        shutil.copy(p, copies[-1])
        return header

    import repro.experiments.runner as runner_mod
    straight = run(factory(), scenario())
    old = runner_mod.save_checkpoint
    runner_mod.save_checkpoint = hoarding_save
    try:
        checked = run(factory(), scenario(),
                      checkpoint_every=0.0, checkpoint_path=path)
    finally:
        runner_mod.save_checkpoint = old
    assert fct_fingerprint(checked) == fct_fingerprint(straight)
    assert copies, "run finished without writing any checkpoint"

    for copy in copies:
        resumed = run(resume=str(copy))
        assert fct_fingerprint(resumed) == fct_fingerprint(straight)
        assert resumed.wall_events == straight.wall_events
    return copies


def test_resume_from_every_checkpoint_is_identical(tmp_path):
    """Every snapshot along one run — not just the last — resumes to the
    same end state."""
    _resume_from_every_checkpoint(tmp_path, Dctcp)


def _open_scoreboards(copy):
    """Flow ids whose sender and receiver both hold out-of-order seqs
    (a non-empty ``sacked``) in a snapshot."""
    network = load_checkpoint(str(copy)).topo.network
    ends = {}
    for host in network.hosts.values():
        for flow_id, endpoint in host.endpoints.items():
            if getattr(endpoint, "sacked", None):
                ends[flow_id] = ends.get(flow_id, 0) + 1
    return [flow_id for flow_id, count in ends.items() if count == 2]


@pytest.mark.parametrize("scheme", ["dctcp", "ppt"])
def test_resume_mid_recovery_with_both_scoreboards_open(tmp_path, scheme):
    """A snapshot cut while a flow recovers from loss, with out-of-order
    seqs in the ``sacked`` sets of both its ends, resumes bit-identical
    (the helper checks every snapshot against the straight run)."""
    copies = _resume_from_every_checkpoint(tmp_path, SCHEME_FACTORIES[scheme])
    assert any(_open_scoreboards(copy) for copy in copies
               ), "no snapshot was cut with both scoreboards open"


@pytest.mark.parametrize("scheme", ["homa", "ndp"])
def test_resume_between_rearm_and_fire_of_a_sender_timeout(tmp_path, scheme):
    """The receiver-driven senders' timeout is a deadline plus one
    resident event that re-checks it: a snapshot taken after a re-arm
    moved the deadline, before the event woke, must carry both."""
    copies = _resume_from_every_checkpoint(tmp_path, SCHEME_FACTORIES[scheme])

    def rearmed(time, fn):
        owner = getattr(fn, "__self__", None)
        return (isinstance(owner, MessageSender)
                and owner._rto_deadline > time)

    assert any(rearmed(time, fn) for copy in copies
               for time, fn, _args
               in load_checkpoint(str(copy)).sim.live_entries()
               ), "no snapshot caught a re-armed timeout in flight"


def _loops(network):
    return [endpoint.lcp for host in network.hosts.values()
            for endpoint in host.endpoints.values()
            if getattr(endpoint, "lcp", None) is not None]


def _second_loops(copy):
    """(loop, sim) of every sender with a second loop in a snapshot."""
    state = load_checkpoint(str(copy))
    return [(loop, state.sim) for loop in _loops(state.topo.network)]


def test_resume_with_a_paced_burst_in_flight(tmp_path):
    """A snapshot cut through PPT's paced initial window carries the
    burst as the chain's one armed entry plus its picklable source."""
    # seed 1 puts a slice boundary inside two flows' first loops
    copies = _resume_from_every_checkpoint(tmp_path, SCHEME_FACTORIES["ppt"],
                                           seed=1)

    def mid_burst(loop, sim):
        chain = loop._pace
        return (chain is not None and chain.head_event is not None
                and 0 < chain._seqs_left
                and any(getattr(fn, "__self__", None) is chain
                        for _time, fn, _args in sim.live_entries()))

    assert any(mid_burst(loop, sim) for copy in copies
               for loop, sim in _second_loops(copy)
               ), "no snapshot was cut mid-burst"


def test_resume_between_a_purge_and_the_next_tail_pick(tmp_path):
    """``pick_tail`` resumes its walk unless a ledger forgot seqs
    undelivered; a snapshot cut after that (restart pending) and before
    the loop picks again must carry the pending restart."""
    # seed 6: flow 7's loop closes on 43 packets, is cut, then sends two more
    copies = _resume_from_every_checkpoint(tmp_path, SCHEME_FACTORIES["ppt"],
                                           seed=6)
    cut = [(copy, loop.sender.flow.flow_id, loop.lp_pkts_sent)
           for copy in copies for loop, _sim in _second_loops(copy)
           if loop._walk_top == -1 and loop.lp_pkts_sent
           and not loop.sender.finished]
    assert cut, "no snapshot holds a pending walk restart"

    def picked_again(copy, flow_id, sent_before):
        # the finished loop's sender is retired: its count is the table's
        table = run(resume=str(copy)).table
        return table.lp_pkts_sent[table.flow_id.index(flow_id)] > sent_before

    assert any(picked_again(*row) for row in cut
               ), "no loop with a pending restart picked again"


def test_resume_straight_after_booked_first_loops(tmp_path):
    """Memcached-sized flows book their empty first LCP loop instead of
    scheduling it: a snapshot holding unfinished flows whose loop was
    booked carries no loop entry for them and resumes bit-identical."""
    copies = _resume_from_every_checkpoint(
        tmp_path, SCHEME_FACTORIES["ppt"], scenario=lambda: all_to_all_scenario(
            "ckpt-memcached", MEMCACHED_W1, load=0.01, n_flows=60,
            size_cap=None, seed=2, fabric=FABRICS["tiny"](), max_time=0.02))

    def booked(loop, sim):
        return (loop.loops_opened == 1 and not loop.active
                and loop.lp_pkts_sent == 0 and not loop.sender.finished
                and not any(getattr(fn, "__self__", None) is loop
                            for _time, fn, _args in sim.live_entries()))

    assert any(booked(loop, sim) for copy in copies
               for loop, sim in _second_loops(copy)
               ), "no snapshot was cut with a booked loop's flow unfinished"


def test_resume_with_rc3_filler_in_flight(tmp_path):
    copies = _resume_from_every_checkpoint(tmp_path, SCHEME_FACTORIES["rc3"])
    assert any(loop.active and loop.outstanding for copy in copies
               for loop, _sim in _second_loops(copy)
               ), "no snapshot caught LP packets in flight"


@pytest.mark.parametrize("scheme", ["homa", "ndp"])
def test_resume_with_control_packets_in_flight(tmp_path, scheme):
    """A snapshot cut while grants / pulls sit in a ``ControlPipe``: the
    pipe pickles what it owns for its pair, not its bound-callback
    caches (the ``Wire`` / ``Port`` contract), restore rebuilds them, the
    endpoints' cached senders still point at the restored pipes, and
    the resumed run is the straight one (checked by the helper)."""
    copies = _resume_from_every_checkpoint(tmp_path, SCHEME_FACTORIES[scheme])
    caught = 0
    for copy in copies:
        state = load_checkpoint(str(copy))
        network = state.topo.network
        pipes = network._control_pipes
        for (src, dst), pipe in pipes.items():
            assert set(pipe.__getstate__()) == {
                "sim", "net", "host", "peer", "delay", "pending"}
            assert pipe._fire_cb == pipe._fire and pipe._send_cb == pipe.send
            assert pipe._deliver_cb == network.hosts[dst].receive_control
            assert pipe.net is network and pipe.host is network.hosts[src]
            assert pipe.delay == network.base_delay(src, dst)
            caught += bool(pipe.pending)
        for manager in state.ctx.extra[f"{scheme}_rx"].values():
            for message in manager.messages.values():
                cached = message.send_control
                assert cached is None or pipes[
                    manager.host_id, message.flow.src].send == cached
    assert caught, "no snapshot caught a control packet in flight"


def test_double_restart_kill_resume_kill_resume(tmp_path, monkeypatch):
    """Resume a run, checkpoint *again* mid-resume, resume that — the
    final state is still bit-identical to never having stopped."""
    first = str(tmp_path / "first.ckpt")
    second = str(tmp_path / "second.ckpt")
    scenario = lambda: scenario_for("tiny", "down", 2)

    straight = run(Dctcp(), scenario())

    # keep only the *earliest* snapshot per file — checkpoint_every=0.0
    # would otherwise overwrite it every slice and leave the finished
    # state, making both restarts trivial
    import repro.experiments.runner as runner_mod
    real_save = save_checkpoint

    def first_only(state, p):
        if not os.path.exists(p):
            return real_save(state, p)
        return state.header()

    monkeypatch.setattr(runner_mod, "save_checkpoint", first_only)
    run(Dctcp(), scenario(), checkpoint_every=0.0, checkpoint_path=first)

    # restart #1: load the early snapshot, keep checkpointing elsewhere
    assert os.path.exists(first), "run finished without any checkpoint"
    state = load_checkpoint(first)
    assert state.sim.events_run < straight.wall_events, \
        "first snapshot should be mid-flight"
    resumed_once = run(resume=state, checkpoint_every=0.0,
                       checkpoint_path=second)
    assert fct_fingerprint(resumed_once) == fct_fingerprint(straight)

    # restart #2: resume the checkpoint written during the resumed run
    state2 = load_checkpoint(second)
    resumed_twice = run(resume=state2)
    assert fct_fingerprint(resumed_twice) == fct_fingerprint(straight)
    assert resumed_twice.wall_events == straight.wall_events


def test_observed_and_validated_run_survives_resume(tmp_path):
    """Telemetry and the invariant auditor travel inside the snapshot;
    the resumed trace equals the straight-through trace and the auditor
    re-certifies the restored engine with zero violations."""
    path = str(tmp_path / "run.ckpt")
    straight = run(Dctcp(), scenario_for("tiny", "loss", 1),
                   observe=True, validate=True)
    run(Dctcp(), scenario_for("tiny", "loss", 1),
        observe=True, validate=True,
        checkpoint_every=0.0, checkpoint_path=path)
    assert os.path.exists(path), "run finished without any checkpoint"
    state = load_checkpoint(path)
    if state.sim.events_run >= straight.wall_events:
        pytest.skip("run too short to checkpoint mid-flight")
    resumed = run(resume=state)
    assert fct_fingerprint(resumed) == fct_fingerprint(straight)
    assert trace_fingerprint(resumed.telemetry) == \
        trace_fingerprint(straight.telemetry)
    assert resumed.validation is not None and resumed.validation.ok
    # on_restore ran extra checks, so the resumed report did more work
    assert resumed.validation.checks_run >= straight.validation.checks_run


def test_probed_run_resumes_and_the_probe_keeps_sampling(tmp_path,
                                                         monkeypatch):
    """A probe attached through the scenario rides in the heap: the run
    snapshots mid-drain, resumes bit-identical, and the restored probe
    goes on sampling exactly as the straight run's did."""
    path = str(tmp_path / "run.ckpt")

    def probed():
        return figures._probed(scenario_for("tiny", "none", 1),
                               figures._bytes_sent, 20e-6)

    scenario, straight_probes = probed()
    straight = run(Dctcp(), scenario)

    import repro.experiments.runner as runner_mod
    real_save = save_checkpoint

    def first_only(state, p):
        if not os.path.exists(p):
            return real_save(state, p)
        return state.header()

    monkeypatch.setattr(runner_mod, "save_checkpoint", first_only)
    scenario, _probes = probed()
    run(Dctcp(), scenario, checkpoint_every=0.0, checkpoint_path=path)

    state = load_checkpoint(path)
    assert state.sim.events_run < straight.wall_events
    (probe,) = {fn.__self__ for _time, fn, _args in state.sim.live_entries()
                if isinstance(getattr(fn, "__self__", None), Probe)}
    taken = len(probe.samples)
    resumed = run(resume=state)
    assert fct_fingerprint(resumed) == fct_fingerprint(straight)
    assert resumed.wall_events == straight.wall_events
    assert len(probe.samples) > taken
    assert probe.samples == straight_probes[0].samples


# -- format, versioning, atomicity ----------------------------------------


def test_header_inspection_is_cheap_and_correct(ckpt_path):
    run(Dctcp(), scenario_for("tiny", "none", 1),
        checkpoint_every=0.0, checkpoint_path=ckpt_path)
    header = inspect_checkpoint(ckpt_path)
    assert header["format"] == CHECKPOINT_FORMAT
    assert header["version"] == CHECKPOINT_VERSION
    assert header["scheme"] == "dctcp"
    assert header["n_flows"] == 12
    assert header["checkpoints_taken"] >= 1


def test_version_mismatch_is_refused(ckpt_path):
    run(Dctcp(), scenario_for("tiny", "none", 1),
        checkpoint_every=0.0, checkpoint_path=ckpt_path)
    state = load_checkpoint(ckpt_path)
    header = state.header()
    # a snapshot from the previous build, and one from the next
    for version in (CHECKPOINT_VERSION - 1, CHECKPOINT_VERSION + 1):
        header["version"] = version
        buf = io.BytesIO()
        pickle.dump(header, buf)
        pickle.dump(state, buf)
        with open(ckpt_path, "wb") as fh:
            fh.write(buf.getvalue())
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(ckpt_path)
        with pytest.raises(CheckpointError, match="version"):
            inspect_checkpoint(ckpt_path)


def test_foreign_and_missing_files_are_refused(tmp_path):
    garbage = tmp_path / "garbage.bin"
    garbage.write_bytes(b"\x00\x01\x02 not a checkpoint")
    with pytest.raises(CheckpointError):
        load_checkpoint(str(garbage))
    wrong_format = tmp_path / "wrong.ckpt"
    with open(wrong_format, "wb") as fh:
        pickle.dump({"format": "something-else", "version": 1}, fh)
    with pytest.raises(CheckpointError, match="not a"):
        load_checkpoint(str(wrong_format))
    with pytest.raises(CheckpointError, match="cannot open"):
        load_checkpoint(str(tmp_path / "does-not-exist.ckpt"))


def test_scheme_scenario_mismatch_is_refused(ckpt_path):
    run(Dctcp(), scenario_for("tiny", "none", 1),
        checkpoint_every=0.0, checkpoint_path=ckpt_path)
    from repro.core.ppt import Ppt
    with pytest.raises(CheckpointError, match="scheme"):
        run(Ppt(), scenario_for("tiny", "none", 1), resume=ckpt_path)
    with pytest.raises(CheckpointError, match="scenario"):
        run(Dctcp(), scenario_for("wide", "none", 1), resume=ckpt_path)


def test_resume_rejects_observe_and_validate(ckpt_path):
    run(Dctcp(), scenario_for("tiny", "none", 1),
        checkpoint_every=0.0, checkpoint_path=ckpt_path)
    with pytest.raises(ValueError, match="baked into"):
        run(resume=ckpt_path, observe=True)
    with pytest.raises(ValueError, match="baked into"):
        run(resume=ckpt_path, validate=True)


def test_atomic_write_leaves_no_temp_files(tmp_path):
    path = str(tmp_path / "run.ckpt")
    run(Dctcp(), scenario_for("tiny", "none", 2),
        checkpoint_every=0.0, checkpoint_path=path)
    leftovers = [p.name for p in tmp_path.iterdir() if p.name != "run.ckpt"]
    assert leftovers == []


# -- soak scenario ---------------------------------------------------------


def test_soak_scenario_smoke_under_validate():
    """A short soak horizon: faults fire, every flow completes, zero
    invariant violations."""
    scenario = soak_scenario(horizon=60.0, fault_period=10.0, seed=2)
    result = run(Dctcp(), scenario, validate=True)
    assert result.health.ok, result.health.summary()
    assert result.validation.ok
    assert len(result.health.fault_windows) >= 5
    assert result.health.sim_time > 30.0


def test_soak_scenario_checkpoints_and_resumes(tmp_path):
    path = str(tmp_path / "soak.ckpt")
    straight = run(Dctcp(), soak_scenario(horizon=60.0, fault_period=10.0))
    run(Dctcp(), soak_scenario(horizon=60.0, fault_period=10.0),
        checkpoint_every=5.0, checkpoint_path=path)
    state = load_checkpoint(path)
    resumed = run(resume=state)
    assert fct_fingerprint(resumed) == fct_fingerprint(straight)
    assert resumed.wall_events == straight.wall_events


def test_soak_rejects_bad_horizon():
    with pytest.raises(ValueError, match="horizon"):
        soak_scenario(horizon=0.0)
    with pytest.raises(ValueError, match="period"):
        soak_fault_plan(10.0, period=-1.0)


@pytest.mark.parametrize("build, fragment", [
    (lambda: soak_scenario(horizon=math.nan), "horizon"),
    (lambda: soak_scenario(horizon=math.inf, fault_period=None), "horizon"),
    (lambda: soak_fault_plan(math.nan), "horizon"),
    (lambda: soak_fault_plan(10.0, period=math.nan), "period"),
    (lambda: soak_fault_plan(10.0, period=math.inf), "period"),
], ids=["scenario-nan-horizon", "scenario-inf-horizon", "plan-nan-horizon",
        "plan-nan-period", "plan-inf-period"])
def test_soak_rejects_non_finite_horizon_and_period(build, fragment):
    """NaN and infinity pass a ``<= 0`` check; an infinite horizon used
    to lay fault events forever."""
    with pytest.raises(ValueError, match=fragment):
        build()


@pytest.mark.parametrize("settings", [
    dict(checkpoint_path="x.ckpt"),
    dict(checkpoint_every=5.0),
    dict(checkpoint_every=math.nan, checkpoint_path="x.ckpt"),
    dict(checkpoint_every=math.inf, checkpoint_path="x.ckpt"),
    dict(checkpoint_every=-1.0, checkpoint_path="x.ckpt"),
], ids=["path-only", "every-only", "every-nan", "every-inf", "every-neg"])
def test_run_refuses_checkpoint_settings_it_would_ignore(
        settings, tmp_path, monkeypatch):
    """Each of these used to finish a soak and write no file."""
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ValueError, match="checkpoint_every"):
        run(Dctcp(), soak_scenario("misuse", horizon=20.0), **settings)
    assert os.listdir(tmp_path) == []


# -- CLI -------------------------------------------------------------------


def test_cli_checkpoint_and_resume_roundtrip(tmp_path, capsys):
    from repro.cli import main
    path = str(tmp_path / "cli.ckpt")
    # a soak run spans hundreds of drain slices, so --checkpoint-every
    # has plenty of boundaries to land snapshots on
    base = ["run", "--schemes", "dctcp", "--soak", "20", "--seed", "3"]
    assert main(base) == 0
    table = capsys.readouterr().out
    assert main(base + ["--checkpoint", path, "--checkpoint-every", "5.0"]) \
        == 0
    assert capsys.readouterr().out == table
    assert main(["run", "--resume", path]) == 0
    assert capsys.readouterr().out == table


@pytest.mark.parametrize("policy", [[], ["--jobs", "2"]],
                         ids=["serial", "jobs-2"])
def test_cli_checkpoints_each_scheme_to_its_own_file(
        policy, tmp_path, capsys):
    """Two schemes write ``c.dctcp.ckpt`` and ``c.ppt.ckpt``, and each
    resumes to its own row of the straight-through table."""
    from repro.cli import main
    base = ["run", "--schemes", "dctcp", "ppt", "--soak", "20",
            "--seed", "3"]
    assert main(base) == 0
    rows = capsys.readouterr().out.splitlines()[2:]
    assert main(base + policy + ["--checkpoint", str(tmp_path / "c.ckpt"),
                                 "--checkpoint-every", "5.0"]) == 0
    assert capsys.readouterr().out.splitlines()[2:] == rows
    assert sorted(os.listdir(tmp_path)) == ["c.dctcp.ckpt", "c.ppt.ckpt"]
    for name, row in zip(("dctcp", "ppt"), rows):
        assert main(["run", "--resume", str(tmp_path / f"c.{name}.ckpt")]) \
            == 0
        resumed, = capsys.readouterr().out.splitlines()[2:]
        assert resumed.split() == row.split()


def test_cli_checkpoint_flag_validation(capsys):
    from repro.cli import main
    # needs --checkpoint-every
    assert main(["run", "--schemes", "dctcp", "--flows", "8",
                 "--checkpoint", "/tmp/x.ckpt"]) == 2
    # a missing checkpoint is a clean error, not a traceback
    assert main(["run", "--resume", "/tmp/definitely-missing.ckpt"]) == 2


def test_cli_soak_flag(capsys):
    from repro.cli import main
    assert main(["run", "--schemes", "dctcp", "--soak", "20",
                 "--validate", "--health"]) == 0
    out = capsys.readouterr().out
    assert "dctcp" in out


# -- fault plan construction validation ------------------------------------


def test_fault_plan_rejects_negative_start():
    with pytest.raises(ValueError, match="negative"):
        FaultPlan([LinkDown("sw0->sw1", -0.5, 1.0)])


def test_fault_plan_rejects_end_before_start():
    with pytest.raises(ValueError, match="before it starts"):
        FaultPlan([PacketLoss("sw0->sw1", 0.1, start=2.0, end=1.0)])


def test_fault_plan_rejects_bad_rates_and_cycles():
    from repro.faults import LinkFlap, RateDegrade
    with pytest.raises(ValueError, match="probability"):
        FaultPlan([PacketLoss("sw0->sw1", 1.5)])
    with pytest.raises(ValueError, match="cycles"):
        FaultPlan([LinkFlap("sw0->sw1", 0.1, 0.1, 0.1, cycles=0)])
    with pytest.raises(ValueError, match="factor"):
        FaultPlan([RateDegrade("sw0->sw1", 0.0, 0.1)])
    with pytest.raises(ValueError, match="duration"):
        FaultPlan([LinkDown("sw0->sw1", 0.1, 0.0)])


def test_fault_plan_rejects_duplicate_injectors():
    with pytest.raises(ValueError, match="duplicate"):
        FaultPlan([LinkDown("sw0->sw1", 0.1, 0.2),
                   LinkDown("sw0->sw1", 0.1, 0.2)])
    # distinct timings on the same port are fine
    FaultPlan([LinkDown("sw0->sw1", 0.1, 0.2),
               LinkDown("sw0->sw1", 0.5, 0.2)])
