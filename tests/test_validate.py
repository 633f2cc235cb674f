"""Tests for the repro.validate invariant auditor.

Three families:

* **auditor-in-the-runner** — validated runs report zero violations and
  are bit-identical to bare runs; a deliberately corrupted mux ledger is
  caught (the mutation test the acceptance criteria demand), strict mode
  raising a structured :class:`InvariantViolation` naming the law;
* **report plumbing** — pickling across worker pipes, combining across
  sweeps, the violation cap;
* **mux property test** — random operation sequences against a
  :class:`PriorityMux` with :func:`audit_mux` asserted clean after every
  single operation (doubling as the unit test for the mux validator).
"""

import dataclasses
import io
import pickle
import random
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_ctx, make_star
from repro.experiments.parallel import GridTask, run_grid
from repro.experiments.runner import run
from repro.experiments.scenarios import (
    all_to_all_scenario,
    dumbbell_scenario,
    star_fabric,
)
from repro.sim.packet import DATA, HEADER_BYTES, Packet
from repro.sim.queues import PriorityMux
from repro.transport.base import Flow
from repro.transport.dctcp import Dctcp, DctcpSender
from repro.transport.homa import Homa
from repro.transport.rc3 import Rc3
from repro.core.hypothetical import HypotheticalDctcp, MwRecordingDctcp
from repro.core.ppt import Ppt
from repro.faults import FaultPlan, PacketLoss
from repro.validate import (
    InvariantViolation,
    RunAuditor,
    ValidationReport,
    Violation,
    audit_mux,
    matrix,
)
from repro.workloads.distributions import WEB_SEARCH


def small_scenario(seed=21, n_flows=16, **overrides):
    return all_to_all_scenario("t-validate", WEB_SEARCH, n_flows=n_flows,
                               fabric=star_fabric(4), seed=seed,
                               event_budget=2_000_000, **overrides)


# ---------------------------------------------------------------------------
# the auditor in the runner
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("scheme_cls", [Dctcp, Ppt], ids=lambda c: c.name)
def test_validated_run_is_clean_and_bit_identical(scheme_cls):
    bare = run(scheme_cls(), small_scenario())
    validated = run(scheme_cls(), small_scenario(), validate=True)

    report = validated.validation
    assert report is not None
    assert report.ok, report.describe()
    assert report.checks_run > 100

    # The auditor observes without perturbing: identical stats, identical
    # event count, identical per-flow completion times.
    assert bare.validation is None
    assert validated.stats == bare.stats
    assert validated.wall_events == bare.wall_events
    assert ([f.fct for f in validated.flows] == [f.fct for f in bare.flows])


def test_matrix_compares_per_flow_tables(monkeypatch):
    """Swapping two flows' FCTs leaves the FctStats equal; the matrix
    still reports the pair as not bit-identical."""
    bare = GridTask(Dctcp, small_scenario, scheme_key="dctcp").execute()
    fct = list(bare.table.fct)
    fct[0], fct[1] = fct[1], fct[0]
    assert fct != list(bare.table.fct)
    swapped = dataclasses.replace(bare.table, fct=array("d", fct))
    validated = dataclasses.replace(bare, table=swapped,
                                    validation=ValidationReport())
    assert validated.stats == bare.stats

    def grid(tasks, jobs):
        half = len(tasks) // 2
        return [bare] * half + [validated] * half

    monkeypatch.setattr(matrix, "run_grid", grid)
    out = io.StringIO()
    assert matrix.run_matrix(["dctcp"], out=out) == 1
    assert "NOT bit-identical" in out.getvalue()
    validated.table = bare.table
    assert matrix.run_matrix(["dctcp"], out=io.StringIO()) == 0


def test_short_gap_flowlet_cell_repins():
    """The 20 us flowlet cell re-pins flows mid-run (10 and 4 times for
    dctcp and ppt at the matrix's 24 flows, where the 500 us cell re-pins
    0 and 1 times), and dctcp's FCTs move with it, so the flowlet laws
    audit path changes, not ECMP in disguise."""
    short, schemes = matrix.CELLS["leaf-spine-flowlet-short"]
    default, _ = matrix.CELLS["leaf-spine-flowlet"]
    tables = {}
    for name in schemes:
        result = run(matrix.SCHEMES[name](),
                     short(n_flows=matrix.DEFAULT_FLOWS), observe=True)
        assert result.health.ok
        assert result.telemetry.summary().flowlet_repins > 0, name
        tables[name] = result.table
    unchanged = run(matrix.SCHEMES["dctcp"](),
                    default(n_flows=matrix.DEFAULT_FLOWS)).table
    assert tables["dctcp"] != unchanged


def test_oracle_filler_validates_clean_under_strict():
    """The hypothetical-DCTCP filler is not in SCHEMES, so the scheme
    matrix never audits it."""
    recorder = MwRecordingDctcp()
    run(recorder, small_scenario())
    result = run(HypotheticalDctcp(recorder.mw_table), small_scenario(),
                 validate="strict")
    assert result.validation.ok and result.validation.checks_run > 100
    assert sum(result.table.lp_pkts_sent) > 0


def test_rc3_under_loss_validates_clean_under_strict():
    lossy = small_scenario(n_flows=24, faults=FaultPlan(
        [PacketLoss("sw0->host*", 0.02)], seed=3))
    result = run(Rc3(), lossy, validate="strict")
    assert result.validation.ok
    assert result.health.retransmits_total > 0      # the loss bit


def test_dumbbell_scenario_validates_clean():
    result = run(Dctcp(), dumbbell_scenario("t-dumbbell", n_flows=8),
                 validate=True)
    assert result.validation.ok, result.validation.describe()


def _tampered(scenario, tamper):
    """``scenario`` with ``tamper(topo)`` applied to every fabric it
    builds, before the run attaches anything to it."""
    build = scenario.build_topology

    def build_topology():
        topo = build()
        tamper(topo)
        return topo

    return dataclasses.replace(scenario, build_topology=build_topology)


def _corrupt_first_mux(topo):
    # Cook the shared-buffer ledger without touching any real packet:
    # exactly what a buggy enqueue path would do.
    topo.network.ports[0].mux.occupancy += 1500


def test_corrupted_mux_raises_in_strict_mode():
    with pytest.raises(InvariantViolation) as exc_info:
        run(Dctcp(), _tampered(small_scenario(), _corrupt_first_mux),
            validate="strict")
    exc = exc_info.value
    assert exc.law.startswith("mux-occupancy")
    assert exc.subject  # names the offending port
    assert "occupancy" in exc.details


def test_corrupted_mux_reported_in_audit_mode():
    result = run(Dctcp(), _tampered(small_scenario(), _corrupt_first_mux),
                 validate=True)
    report = result.validation
    assert not report.ok
    assert any(law.startswith("mux-occupancy") for law in report.counts)
    # every kept violation names a law, a subject and a detection time
    for violation in report.violations:
        assert violation.law and violation.subject
        assert violation.sim_time >= 0.0


def test_validate_rejects_bad_argument():
    with pytest.raises(TypeError):
        run(Dctcp(), small_scenario(), validate=42)


def test_auditor_is_single_use():
    auditor = RunAuditor()
    run(Dctcp(), small_scenario(n_flows=4), validate=auditor)
    with pytest.raises(RuntimeError):
        run(Dctcp(), small_scenario(n_flows=4), validate=auditor)


def test_grid_task_carries_validation_report():
    tasks = [GridTask(scheme_factory=Dctcp,
                      scenario_factory=small_scenario,
                      params={"n_flows": 8, "seed": seed},
                      label=f"cell{seed}", validate=True)
             for seed in (21, 22)]
    serial = run_grid(tasks, jobs=1)
    forked = run_grid(tasks, jobs=2)
    for summaries in (serial, forked):
        for summary in summaries:
            assert summary.validation is not None
            assert summary.validation.ok
    # the reports crossed the worker pipe intact
    assert ([s.validation.checks_run for s in forked]
            == [s.validation.checks_run for s in serial])


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------


def _sample_violation(law="mux-occupancy-sum"):
    return Violation(law=law, subject="sw0->h1", sim_time=0.25,
                     message="ledger disagrees", details={"occupancy": 3000})


def test_report_pickle_roundtrip():
    report = ValidationReport()
    report.checks_run = 10
    report.record(_sample_violation())
    clone = pickle.loads(pickle.dumps(report))
    assert clone.violations_seen == 1
    assert clone.counts == {"mux-occupancy-sum": 1}
    assert clone.violations[0].describe() == report.violations[0].describe()


def test_invariant_violation_pickle_roundtrip():
    exc = InvariantViolation(_sample_violation())
    clone = pickle.loads(pickle.dumps(exc))
    assert clone.law == exc.law
    assert clone.violation.details == exc.violation.details


def test_report_caps_kept_violations_but_counts_all():
    report = ValidationReport(max_kept=5)
    for _ in range(20):
        report.record(_sample_violation())
    assert report.violations_seen == 20
    assert len(report.violations) == 5
    assert report.counts["mux-occupancy-sum"] == 20


def test_strict_report_raises_immediately():
    report = ValidationReport(strict=True)
    with pytest.raises(InvariantViolation):
        report.record(_sample_violation())


# ---------------------------------------------------------------------------
# mux property test: conservation after every operation
# ---------------------------------------------------------------------------


def _assert_clean(mux, op_index, op):
    problems = audit_mux(mux)
    assert not problems, (
        f"after op {op_index} ({op}): "
        + "; ".join(f"[{law}] {msg} {details}"
                    for law, msg, details in problems))


_pkt_st = st.tuples(
    st.integers(min_value=HEADER_BYTES, max_value=1500),  # size
    st.integers(min_value=0, max_value=7),                # priority
    st.booleans(),                                        # lcp
    st.booleans(),                                        # unscheduled
)

_op_st = st.one_of(
    st.tuples(st.just("enqueue"), _pkt_st),
    st.tuples(st.just("dequeue"), st.none()),
    st.tuples(st.just("flush"), st.none()),
)


@settings(max_examples=80, deadline=None)
@given(
    ops=st.lists(_op_st, min_size=1, max_size=60),
    buffer_bytes=st.integers(min_value=2_000, max_value=20_000),
    trim=st.booleans(),
    selective=st.booleans(),
    lp_cap=st.booleans(),
    dt=st.booleans(),
)
def test_mux_conservation_holds_after_every_op(ops, buffer_bytes, trim,
                                               selective, lp_cap, dt):
    mux = PriorityMux(
        buffer_bytes,
        [buffer_bytes // 2] * 8,
        lp_buffer_cap=buffer_bytes // 3 if lp_cap else None,
        dt_alpha=(8, 8, 8, 8, 1, 1, 1, 1) if dt else None,
    )
    # NDP's and Aeolus's features, switched on as configure_network does
    if trim:
        mux.trim = True
        mux.trim_threshold_bytes = buffer_bytes // 4
    if selective:
        mux.selective_drop_threshold = buffer_bytes // 2
    seq = 0
    for i, (op, arg) in enumerate(ops):
        if op == "enqueue":
            size, priority, lcp, unscheduled = arg
            pkt = Packet(flow_id=1, src=0, dst=1, seq=seq, size=size,
                         kind=DATA, priority=priority)
            pkt.lcp = lcp
            pkt.unscheduled = unscheduled
            seq += 1
            mux.enqueue(pkt)
        elif op == "dequeue":
            mux.dequeue()
        else:
            mux.flush()
        _assert_clean(mux, i, op)
    # and the terminal state drains clean
    mux.flush()
    _assert_clean(mux, len(ops), "final flush")
    assert mux.occupancy == 0


def test_audit_mux_flags_cooked_ledger():
    mux = PriorityMux(10_000)
    pkt = Packet(flow_id=1, src=0, dst=1, seq=0, size=1500, kind=DATA,
                 priority=0)
    assert mux.enqueue(pkt)
    mux.queue_occupancy[0] -= 100  # simulate a lost accounting update
    laws = {law for law, _, _ in audit_mux(mux)}
    assert "mux-queue-occupancy" in laws


def test_audit_mux_flags_cooked_incremental_ledgers():
    """The ISSUE-5 hot-path ledgers (hp_occupancy, nonempty_mask,
    pkt_count) are pure mirrors; audit_mux must flag each one when it
    drifts from the scanned truth."""
    mux = PriorityMux(10_000)
    assert mux.enqueue(Packet(flow_id=1, src=0, dst=1, seq=0, size=1500,
                              kind=DATA, priority=0))
    mux.hp_occupancy += 64
    mux.nonempty_mask |= 1 << 7
    mux.pkt_count += 1
    laws = {law for law, _, _ in audit_mux(mux)}
    assert "mux-hp-occupancy" in laws
    assert "mux-nonempty-mask" in laws
    assert "mux-pkt-count" in laws


def test_cooked_wire_ledger_breaks_fabric_conservation():
    """Claiming a phantom transmission makes the in-propagation residual
    disagree with the wire deques at drain end."""

    def cook_port(topo):
        topo.network.ports[0].pkts_sent += 1
        topo.network.ports[0].bytes_sent += 1500

    result = run(Dctcp(), _tampered(small_scenario(n_flows=4), cook_port),
                 validate=True)
    report = result.validation
    assert not report.ok
    assert "fabric-packet-conservation" in report.counts
    assert "fabric-byte-conservation" in report.counts


@pytest.mark.parametrize("ledger", ["outstanding", "lcp.outstanding"])
def test_ledger_retimed_in_place_breaks_time_order(ledger):
    """The hole scan and ``TailLoop.purge`` read the stale *prefix* of a
    ledger: a writer that re-times a seq where it sits (what
    ``WindowSender.transmit`` did before it re-inserted) must be caught
    while the flow is live, not at drain end when the ledger is empty."""
    topo = make_star()
    ctx = make_ctx(topo)
    auditor = RunAuditor().attach(topo.sim, topo.network, ctx)
    Ppt().start_flow(Flow(0, 0, 1, 400_000, 0.0), ctx)
    sender = topo.network.hosts[0].endpoints[0]
    # an identified-large flow opens its first loop in the second RTT
    topo.sim.run(until=1.5 * sender.base_rtt)
    entries = sender.outstanding if ledger == "outstanding" \
        else sender.lcp.outstanding
    assert len(entries) > 2
    auditor.on_slice()
    assert auditor.report.ok, auditor.report.describe()
    entries[next(iter(entries))] = topo.sim.now
    auditor.on_slice()
    assert list(auditor.report.counts) == ["window-ledger-time-ordered"]
    assert ledger + " not" in auditor.report.violations[0].message


def _scoreboards(topo, scheme):
    """The (sender, receiver) ``cum`` / ``sacked`` owners of flow 0."""
    sender = topo.network.hosts[0].endpoints[0]
    receiver = topo.network.hosts[1].endpoints[0]
    if scheme == "homa":
        return None, receiver.state
    return sender, receiver


@pytest.mark.parametrize("scheme, end", [
    ("dctcp", 0), ("dctcp", 1), ("homa", 1)],
    ids=["window-sender", "window-receiver", "message-state"])
def test_stale_seq_below_cum_breaks_the_scoreboard(scheme, end):
    """Every seq below ``cum`` is delivered by construction, so a stale
    one left in ``sacked`` is counted twice by ``delivered`` — which a
    window endpoint's counting law may also notice; the scoreboard law
    names the seq."""
    topo = make_star()
    ctx = make_ctx(topo)
    auditor = RunAuditor().attach(topo.sim, topo.network, ctx)
    factory = {"dctcp": Dctcp, "homa": lambda: Homa(rtt_bytes=15_000)}
    factory[scheme]().start_flow(Flow(0, 0, 1, 400_000, 0.0), ctx)
    topo.sim.run(until=40e-6)
    owner = _scoreboards(topo, scheme)[end]
    assert 2 <= owner.cum < owner.n_packets
    owner.sacked.add(owner.cum - 2)
    report = auditor.finalize()
    assert report.counts["seq-scoreboard"] == 1, report.describe()
    assert set(report.counts) <= {"seq-scoreboard", "flow-tx-conservation",
                                  "recv-counting"}
    [violation] = [v for v in report.violations if v.law == "seq-scoreboard"]
    assert violation.details["stray"] == [owner.cum - 2]


class _ForgetfulSender(DctcpSender):
    """Loses count of its transmissions as its last ACK lands."""

    def stop(self) -> None:
        self.pkts_transmitted = 0
        super().stop()


class _ForgetfulDctcp(Dctcp):
    sender_cls = _ForgetfulSender


def test_undercounted_transmissions_caught_at_retirement():
    """The drain-end sender laws run when a sender retires, which is
    the last time anything can read it: each flow breaks
    ``flow-tx-conservation`` at its own completion, not at drain end."""
    result = run(_ForgetfulDctcp(), small_scenario(n_flows=4),
                 validate=True)
    report = result.validation
    assert list(report.counts) == ["flow-tx-conservation"]
    assert report.counts["flow-tx-conservation"] == 4
    # each at its last ACK: after the receiver finished, one path delay
    # later, long before the drain ends
    times = sorted(v.sim_time for v in report.violations)
    finishes = sorted(f.finish_time for f in result.flows)
    assert all(f < t < f + 1e-4 for f, t in zip(finishes, times))
    assert times[-1] < result.health.sim_time
    with pytest.raises(InvariantViolation) as exc_info:
        run(_ForgetfulDctcp(), small_scenario(n_flows=4), validate="strict")
    assert exc_info.value.law == "flow-tx-conservation"


def test_cooked_dead_counter_detected():
    """The engine's cancelled-but-resident counter — which the heap
    compaction trigger reads and ``live_pending`` is derived from — is
    cross-checked against a full heap scan at finalize."""

    def cook_dead(topo):
        topo.sim._dead += 1

    result = run(Dctcp(), _tampered(small_scenario(n_flows=4), cook_dead),
                 validate=True)
    report = result.validation
    assert not report.ok
    assert "engine-dead-counter" in report.counts
