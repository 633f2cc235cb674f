"""Cross-commit fingerprint gate.

Every other bit-identity gate in tier-1 compares two modes of the
*same* commit (pipelined vs legacy wire, streamed vs materialised,
serial vs parallel), so a change that shifts both sides the same way
passes them all.  This one compares against
``golden_fingerprints.json``, recorded before the refactor that added
it touched any source: a cell's per-flow ``repr(fct)`` hash and its
event count must match what an earlier commit produced.

A deliberate behaviour change re-records the file (and
``golden_flowtables.json``, each cell's per-flow table) in the same
commit and says why::

    PYTHONPATH=src python tests/test_golden_fingerprints.py
"""

import functools
import hashlib
import json
from pathlib import Path

import pytest

from repro.core.ppt import Ppt
from repro.experiments.runner import Scenario, run, two_pass
from repro.faults import FaultPlan, PacketLoss
from repro.experiments.scenarios import (
    SCHEMES,
    all_to_all_scenario,
    incast_scenario,
    lossless_scenario,
    sim_config,
    sim_fabric,
    star_fabric,
)
from repro.sim.hybrid import HybridConfig
from repro.transport.base import Flow
from repro.units import gbps
from repro.workloads.distributions import MEMCACHED_W1, WEB_SEARCH
from test_wire_equivalence import _flap_scenario

GOLDEN = Path(__file__).with_name("golden_fingerprints.json")

SMALL_LEAF_SPINE = sim_fabric(n_leaf=2, n_spine=2, hosts_per_leaf=4)


def _star_incast(name, size_cap=200_000, **overrides):
    return incast_scenario(name, WEB_SEARCH, n_senders=6, load=0.6,
                           n_flows=60, size_cap=size_cap, seed=7,
                           fabric=star_fabric(8), **overrides)


def _leaf_spine(name, **overrides):
    return all_to_all_scenario(name, WEB_SEARCH, load=0.5, n_flows=60,
                               size_cap=200_000, seed=11,
                               fabric=SMALL_LEAF_SPINE, **overrides)


# name -> (scheme key or factory, scenario factory)
CELLS = {
    # the three test_wire_equivalence scenarios
    "wire-incast": ("dctcp", lambda: incast_scenario(
        "equiv-incast", WEB_SEARCH, n_senders=8, load=0.6,
        n_flows=16, size_cap=200_000, seed=7)),
    "wire-flap": ("dctcp", _flap_scenario),
    "wire-spray": ("ndp", lambda: all_to_all_scenario(
        "equiv-spray", WEB_SEARCH, n_flows=12,
        fabric=SMALL_LEAF_SPINE, seed=11, event_budget=2_000_000)),
    "streamed": ("ppt", lambda: _leaf_spine("golden-stream", stream=True)),
    "pfc": ("dcqcn", lambda: lossless_scenario(
        "golden-pfc", n_flows=24, size_cap=200_000)),
    # 13 flows go abstract, 10 of them are demoted back to packets
    "hybrid": ("dctcp", lambda: all_to_all_scenario(
        "golden-hybrid", WEB_SEARCH, load=0.25, n_flows=60,
        size_cap=4_000_000, seed=5, fabric=star_fabric(6, rate=gbps(1)),
        hybrid=HybridConfig(size_threshold=200_000))),
}
for _scheme in sorted(SCHEMES):
    CELLS[f"{_scheme}-star-incast"] = (
        _scheme, lambda s=_scheme: _star_incast(f"golden-incast-{s}"))
for _scheme in ("dctcp", "ppt", "rc3", "homa", "ndp", "aeolus", "expresspass"):
    CELLS[f"{_scheme}-leaf-spine"] = (
        _scheme, lambda s=_scheme: _leaf_spine(f"golden-ls-{s}"))

# The receiver-driven recovery paths (sender timeout, grant resend, pull
# RTX, re-credit): the star incast with 2 % loss on the bottleneck
# downlink.  ExpressPass's retransmit flag is a known-wrong counter at
# the recording commit, so its cell pins FCTs and events only.  The
# second-loop senders ride the same cell: lost opportunistic packets are
# purged and left to the primary loop, the loops cross, PPT's odd LP
# tail is flushed, Halfback repairs from the tail backwards.
LOSS_CELLS = ("homa", "aeolus", "ndp", "expresspass",
              "ppt", "rc3", "halfback")
COUNTS_RETRANSMITS = {"homa-loss", "aeolus-loss", "ndp-loss"}
for _scheme in LOSS_CELLS:
    CELLS[f"{_scheme}-loss"] = (
        _scheme, lambda s=_scheme: _star_incast(
            f"golden-loss-{s}",
            faults=FaultPlan([PacketLoss("sw0->host0", 0.02)], seed=3)))

# The two LCP ablations of Figs. 15/16: the line-rate and the ECN-blind
# branches of ``open_loop`` / ``_termination_check`` / ``on_lp_ack``.
CELLS["ppt-noewd-star-incast"] = (
    lambda: Ppt(ewd=False), lambda: _star_incast("golden-incast-ppt-noewd"))
CELLS["ppt-noecn-star-incast"] = (
    lambda: Ppt(lcp_ecn=False),
    lambda: _star_incast("golden-incast-ppt-noecn"))
# At 200 kB no LP-ACK of the star incast comes back ECE-marked, so the
# two cells above and ``ppt-star-incast`` agree wherever the ECN switch
# is the only difference.  Uncapped Web Search sizes mark six: the
# yield that cancels the rest of a paced window, and its ablation.
CELLS["ppt-fullsize-incast"] = (
    "ppt", lambda: _star_incast("golden-fullsize-ppt", size_cap=None))
CELLS["ppt-noecn-fullsize-incast"] = (
    lambda: Ppt(lcp_ecn=False),
    lambda: _star_incast("golden-fullsize-ppt-noecn", size_cap=None))

# Uncapped all-to-all on the default fabric, in the regime where one
# starved multi-MB flow keeps re-opening its loop: picked by counting
# ledger reads, not by the clock (docs/architecture.md, "Second loops") —
# 137,866 tail picks walk 36.1 M seqs and 7,447 dup-ACK hole scans read
# 11.0 M ledger entries at the recording commit.  ROADMAP 1(d): the two
# LP counters are pinned here before anyone touches re-open behaviour.
CELLS["ppt-uncapped-all-to-all"] = (
    "ppt", lambda: all_to_all_scenario(
        "golden-uncapped-ppt", WEB_SEARCH, load=0.5, n_flows=40,
        size_cap=None, seed=3, max_time=60.0))

# Memcached W1 (1-2 packet messages), streamed, with the suite's
# ``memcached-churn`` thresholds: the regime where the first HCP window
# covers nearly every flow, so nearly every case-1 LCP loop has nothing
# to send — per-flow set-up, not the packet path, is the cost here.
CELLS["ppt-memcached-stream"] = (
    "ppt", lambda: all_to_all_scenario(
        "golden-memcached-ppt", MEMCACHED_W1, load=0.5, n_flows=10_000,
        size_cap=None, stream=True, seed=7,
        config=sim_config(demotion_thresholds=(2_000, 10_000, 30_000),
                          identification_threshold=30_000)))

# Two 20 MB flows into one host of a 4-host star, 1 % loss on its
# downlink: loss recovery holds a large out-of-order scoreboard on both
# ends of both flows for most of the run — the per-flow sequence state,
# not the packet path, is what these two cells pin.
LONG_FLOW = 20_000_000


def _longflow_loss(name):
    return Scenario(
        name, star_fabric(4),
        lambda topo: [Flow(0, 0, 2, LONG_FLOW, 0.0),
                      Flow(1, 1, 2, LONG_FLOW, 0.0)],
        config=sim_config(),
        faults=FaultPlan([PacketLoss("sw0->host2", 0.01)], seed=3))


LONGFLOW_CELLS = ("dctcp-longflow-loss", "ppt-longflow-loss")
for _cell in LONGFLOW_CELLS:
    _scheme = _cell.split("-")[0]
    CELLS[_cell] = (_scheme, lambda s=_scheme: _longflow_loss(
        f"golden-longflow-{s}"))

# The hypothetical-DCTCP oracle is not in SCHEMES (it needs pass one's
# MW table): its cell runs ``two_pass`` and hashes both passes; events,
# completions and loop counters are the oracle pass's.  Its
# ``wall_events`` was re-recorded once, 23215 -> 23045: the filler's
# paced handles used to outlive ``stop()`` and fire as no-ops, and the
# 170 still pending when their flows finished are now cancelled with the
# burst.  Nothing else in the cell (or the file) moved with it.
TWO_PASS_CELL = "hypothetical-star-incast"
CELLS[TWO_PASS_CELL] = (
    None, lambda: _star_incast("golden-incast-hypothetical"))


def _fct_sha256(*runs) -> str:
    digest = hashlib.sha256()
    for flows in runs:
        for flow in sorted(flows, key=lambda f: f.flow_id):
            digest.update(f"{flow.flow_id}:{flow.fct!r};".encode())
    return digest.hexdigest()


def measure(cell: str) -> dict:
    return _run_cell(cell)[0]


# ``FlowTable`` column order of :func:`_table_sha256`
TABLE_COLUMNS = ("flow_id", "size", "fct", "retransmits", "rtos",
                 "pkts_sent", "lp_pkts_sent", "pkts_received",
                 "lp_pkts_received", "acks", "lp_loops")


def _table_sha256(table) -> str:
    digest = hashlib.sha256()
    for name in TABLE_COLUMNS:
        digest.update(name.encode())
        digest.update(getattr(table, name).tobytes())
    return digest.hexdigest()


@functools.lru_cache(maxsize=None)
def _run_cell(cell: str) -> tuple:
    """The cell's golden row and its table's digest, from one run."""
    scheme, scenario_factory = CELLS[cell]
    if cell == TWO_PASS_CELL:
        baseline, result = two_pass(scenario_factory())
        fct_sha256 = _fct_sha256(baseline.flows, result.flows)
    else:
        result = run(SCHEMES.get(scheme, scheme)(), scenario_factory())
        fct_sha256 = _fct_sha256(result.flows)
    # the run's counts have one spelling each: RunSummary carries only
    # the health's, so every cell must agree with the flow-list reading
    assert result.completed == result.health.completed
    assert result.wall_events == result.health.events_run
    out = {"fct_sha256": fct_sha256,
           "completed": result.completed,
           "wall_events": result.wall_events}
    if cell in COUNTS_RETRANSMITS:
        out["retransmits_total"] = result.health.retransmits_total
    loops_opened = sum(result.table.lp_loops)
    if loops_opened:
        # the senders that carry a second loop (PPT's LCP, RC3's filler,
        # the oracle filler); ROADMAP 1(d): pinned before anyone changes
        # re-open behaviour
        out["lp_pkts_sent"] = sum(result.table.lp_pkts_sent)
        out["loops_opened"] = loops_opened
    return out, _table_sha256(result.table)


ALL_CELLS = sorted(CELLS)


def test_golden_file_covers_every_cell():
    assert sorted(json.loads(GOLDEN.read_text())) == ALL_CELLS


@pytest.mark.parametrize("cell", ALL_CELLS)
def test_matches_golden(cell):
    assert measure(cell) == json.loads(GOLDEN.read_text())[cell]


# Every cell's per-flow table, all eleven columns, as the commit before
# finished window senders were retired (``TransportContext.retire``)
# produced it: there every sender stayed registered to the end and the
# harvest read it off its host.  That commit's table had no ``acks`` or
# ``lp_loops`` column; the recording read them off the same endpoints.
GOLDEN_TABLES = Path(__file__).with_name("golden_flowtables.json")


@pytest.mark.parametrize("cell", ALL_CELLS)
def test_flow_table_matches_the_unretired_run(cell):
    assert _run_cell(cell)[1] == json.loads(GOLDEN_TABLES.read_text())[cell]


@pytest.mark.parametrize("cell", sorted(COUNTS_RETRANSMITS))
def test_loss_cells_exercise_recovery(cell):
    golden = json.loads(GOLDEN.read_text())[cell]
    assert golden["completed"] == 60 and golden["retransmits_total"] > 0


@pytest.mark.parametrize("scheme", LOSS_CELLS)
def test_loss_cell_table_sums_are_the_totals(scheme):
    """On the loss cells (retransmits non-zero) the per-flow table's
    column sums are the run health's and the telemetry rollup's totals,
    and the recorded retransmit counts where the golden file holds one."""
    cell = f"{scheme}-loss"
    key, scenario_factory = CELLS[cell]
    result = run(SCHEMES[key](), scenario_factory(), observe=True)
    table, health = result.table, result.health
    telemetry = result.telemetry.summary()
    assert len(table) == health.n_flows == 60
    assert sum(table.retransmits) == health.retransmits_total \
        == telemetry.retransmits > 0
    assert sum(table.rtos) == health.rtos_total == telemetry.rtos
    if cell in COUNTS_RETRANSMITS:
        golden = json.loads(GOLDEN.read_text())[cell]
        assert sum(table.retransmits) == golden["retransmits_total"]


# The receiver-driven senders' timeout became a lazy deadline: a
# re-armed timer no longer leaves a cancelled heap entry per grant or
# pull, it wakes once, finds the deadline moved and sleeps again.  Those
# wake-ups are engine events, so ``wall_events`` rose on the cells where
# a timer outlives a re-arm — by exactly this much, and nothing else in
# the file moved (FCT hashes, completions and retransmit counts
# included).  A later deliberate re-record retires this check with it.
# The hash is of the file as it stood before that change (``git show
# 4096477~1:tests/golden_fingerprints.json``) less the six cells that
# left the file with the run path they measured; the second-loop cells
# and counters recorded later are set aside before hashing, and the
# events the booked first loops removed (below) are added back.
SECOND_LOOP_CELLS = {"rc3-leaf-spine", "ppt-loss", "rc3-loss",
                     "halfback-loss", "ppt-noewd-star-incast",
                     "ppt-noecn-star-incast", "ppt-fullsize-incast",
                     "ppt-noecn-fullsize-incast",
                     "ppt-uncapped-all-to-all", "ppt-memcached-stream",
                     TWO_PASS_CELL}
SECOND_LOOP_COUNTERS = {"lp_pkts_sent", "loops_opened"}
LAZY_TIMEOUT_WAKEUPS = {"aeolus-leaf-spine": 1, "aeolus-star-incast": 9,
                        "aeolus-loss": 9, "homa-loss": 64, "ndp-loss": 28}
BEFORE_LAZY_TIMEOUT_SHA256 = (
    "6e8736f24e3292f44f81cc74e50ca5ff0ce33fcd5f4a941ad3ad29819a7a7f43")


def test_lazy_timeout_moved_only_wall_events():
    golden = {cell: {key: value for key, value in row.items()
                     if key not in SECOND_LOOP_COUNTERS}
              for cell, row in json.loads(GOLDEN.read_text()).items()
              if cell not in SECOND_LOOP_CELLS
              and cell not in LONGFLOW_CELLS}
    _add_back_booked_events(golden)
    for cell, wakeups in LAZY_TIMEOUT_WAKEUPS.items():
        golden[cell]["wall_events"] -= wakeups
    before = json.dumps(golden, indent=1, sort_keys=True) + "\n"
    assert (hashlib.sha256(before.encode()).hexdigest()
            == BEFORE_LAZY_TIMEOUT_SHA256)


# An undelayed case-1 LCP loop with nothing to pick once the first HCP
# window is out is booked at flow start instead of simulated
# (``LcpController.on_flow_start``): its zero-delay ``_open_case1`` and
# its paced first ``_send_one`` no longer fire, two engine events per
# booked loop.  ``wall_events`` fell by exactly that on these cells
# (booked loops counted by wrapping ``on_flow_start``) and nothing else
# in the file moved.  A later deliberate re-record retires this check
# with it.  The hash is of the file as it stood before that change
# (``git show b48edac:tests/golden_fingerprints.json``).
BOOKED_FIRST_LOOPS = {"ppt-fullsize-incast": 16, "ppt-leaf-spine": 13,
                      "ppt-loss": 16, "ppt-memcached-stream": 9266,
                      "ppt-noecn-fullsize-incast": 16,
                      "ppt-noecn-star-incast": 16, "ppt-star-incast": 16,
                      "ppt-uncapped-all-to-all": 3, "streamed": 13}
BEFORE_BOOKED_FIRST_LOOPS_SHA256 = (
    "21090888a17063c052d4226d345c7167fec2cde1a9c6002a7a18b75cc8d1e490")


def _add_back_booked_events(golden: dict) -> None:
    for cell, booked in BOOKED_FIRST_LOOPS.items():
        if cell in golden:
            golden[cell]["wall_events"] += 2 * booked


def test_booked_first_loops_moved_only_wall_events():
    golden = {cell: row for cell, row in json.loads(GOLDEN.read_text()).items()
              if cell not in LONGFLOW_CELLS}
    _add_back_booked_events(golden)
    before = json.dumps(golden, indent=1, sort_keys=True) + "\n"
    assert (hashlib.sha256(before.encode()).hexdigest()
            == BEFORE_BOOKED_FIRST_LOOPS_SHA256)


# The message core was rewritten for speed (control packets through the
# pair's ``ControlPipe``, per-message constants resolved once, SRPT
# ranked without the property and lambda) and, unlike the lazy timeout
# above, re-recorded nothing: the twelve receiver-driven cells still
# hold the FCT hashes and event counts of the commit before it (``git
# show 652c38b:tests/golden_fingerprints.json``), and ``test_matches_
# golden`` holds this build to them.  A later deliberate re-record of
# one of these cells retires this check with it.
RECEIVER_DRIVEN = ("homa", "aeolus", "ndp", "expresspass")
BEFORE_MESSAGE_CORE_REWRITE_SHA256 = (
    "1c3edc37eae96694c87fd58167a0d7c70d96614775a2d522fe5afe804282c666")


def test_message_core_rewrite_moved_no_receiver_driven_cell():
    golden = json.loads(GOLDEN.read_text())
    cells = [cell for cell in ALL_CELLS
             if cell.split("-")[0] in RECEIVER_DRIVEN]
    assert len(cells) == 12
    pinned = json.dumps({cell: [golden[cell]["fct_sha256"],
                                golden[cell]["wall_events"]]
                         for cell in cells}, sort_keys=True)
    assert (hashlib.sha256(pinned.encode()).hexdigest()
            == BEFORE_MESSAGE_CORE_REWRITE_SHA256)


if __name__ == "__main__":
    for path, part in ((GOLDEN, 0), (GOLDEN_TABLES, 1)):
        path.write_text(json.dumps(
            {cell: _run_cell(cell)[part] for cell in ALL_CELLS},
            indent=1, sort_keys=True) + "\n")
        print(f"recorded {len(ALL_CELLS)} cells -> {path}")
