"""Extension: per-flow state does not grow with the flow, and a
finished flow leaves only its record behind.

Two 20 MB flows into one host of a 4-host 40G star, per scheme.  Each
end of a flow keeps ``cum`` plus the out-of-order ``sacked`` set, and a
finished end swaps that set for one shared empty frozenset, so the
traced peak of ``run()`` is the packets in flight plus the reorder
window, not one hash entry per packet of the flow.  The bound is on
bytes traced, not time, so box speed cannot flake it.  With a
per-packet ``delivered`` set on each end and a per-packet send history
on the window sender the peaks were DCTCP 3.98 MB, PPT 4.22 MB and Homa
2.05 MB.  That every finished end holds the shared ``NO_SEQS`` does not
depend on flow size: ``tests/test_window_properties.py`` checks it on
short flows.

The second row is the other axis, flows seen: a streamed PPT Memcached
W1 run at 2,000 and at 8,000 flows, with the traced memory still held
after the drain (``current``, the result alive) bounded per extra flow.
A finished window sender is retired (``TransportContext.retire``), so
what is left per flow is its ``Flow``, its receiver, its host's
registry entry, its ``SenderLedger`` row and its ``FlowTable`` row:
634 B per flow on CPython 3.11.  With every finished sender and its
LCP loop kept registered to the end it was 1,819 B.
"""

import tracemalloc

from conftest import run_figure
from repro.experiments.runner import Scenario, run
from repro.experiments.scenarios import (SCHEMES, all_to_all_scenario,
                                         sim_config, star_fabric)
from repro.transport.base import Flow
from repro.units import gbps
from repro.workloads.distributions import MEMCACHED_W1

FLOW_BYTES = 20_000_000
PEAK_MB = 1.0
SCHEME_NAMES = ("dctcp", "ppt", "homa")
CHURN_FLOWS = (2_000, 8_000)
HELD_BYTES_PER_FLOW = 1_000


def _two_long_flows() -> Scenario:
    return Scenario(
        "seq-state", star_fabric(4, rate=gbps(40)),
        lambda topo: [Flow(0, 0, 2, FLOW_BYTES, 0.0),
                      Flow(1, 1, 2, FLOW_BYTES, 0.0)],
        config=sim_config())


def _run():
    rows = []
    for name in SCHEME_NAMES:
        tracemalloc.start()
        try:
            result = run(SCHEMES[name](), _two_long_flows())
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        rows.append({"scheme": name, "completed": result.completed,
                     "peak_mb": peak / 1e6})
    return {"rows": rows}


def test_long_flows_keep_window_sized_state(benchmark):
    rows = run_figure(benchmark, "Extension: traced peak of two 20 MB flows",
                      _run)["rows"]
    for row in rows:
        assert row["completed"] == 2, row
        assert row["peak_mb"] <= PEAK_MB, row


def _held_after_drain(n_flows: int) -> tuple:
    """(completed, traced bytes still held) of a streamed PPT Memcached
    run with ``memcached-churn``'s thresholds, its result alive."""
    tracemalloc.start()
    try:
        result = run(SCHEMES["ppt"](), all_to_all_scenario(
            "held-per-flow", MEMCACHED_W1, load=0.5, n_flows=n_flows,
            size_cap=None, stream=True, seed=7,
            config=sim_config(demotion_thresholds=(2_000, 10_000, 30_000),
                              identification_threshold=30_000)))
        current, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result.completed, current


def _churn():
    (done_a, held_a), (done_b, held_b) = map(_held_after_drain, CHURN_FLOWS)
    extra = CHURN_FLOWS[1] - CHURN_FLOWS[0]
    return {"rows": [{"flows": CHURN_FLOWS, "completed": (done_a, done_b),
                      "held_mb": (held_a / 1e6, held_b / 1e6),
                      "bytes_per_flow": (held_b - held_a) / extra}]}


def test_finished_flows_leave_only_their_record(benchmark):
    [row] = run_figure(benchmark, "Extension: traced bytes held per "
                       "streamed Memcached flow", _churn)["rows"]
    assert row["completed"] == CHURN_FLOWS, row
    assert row["bytes_per_flow"] <= HELD_BYTES_PER_FLOW, row
