"""Extension: per-flow sequence state does not grow with the flow.

Two 20 MB flows into one host of a 4-host 40G star, per scheme.  Each
end of a flow keeps ``cum`` plus the out-of-order ``sacked`` set, and a
finished end swaps that set for one shared empty frozenset, so the
traced peak of ``run()`` is the packets in flight plus the reorder
window, not one hash entry per packet of the flow.  Both assertions are
counts (bytes traced, object identity), so box speed cannot flake them.
With a per-packet ``delivered`` set on each end and a per-packet send
history on the window sender the peaks were DCTCP 3.98 MB, PPT 4.22 MB
and Homa 2.05 MB.
"""

import tracemalloc

from conftest import run_figure
from repro.experiments.runner import Scenario, run
from repro.experiments.scenarios import SCHEMES, sim_config, star_fabric
from repro.transport.base import NO_SEQS, Flow
from repro.units import gbps

FLOW_BYTES = 20_000_000
PEAK_MB = 1.0
SCHEME_NAMES = ("dctcp", "ppt", "homa")


def _two_long_flows() -> Scenario:
    return Scenario(
        "seq-state", star_fabric(4, rate=gbps(40)),
        lambda topo: [Flow(0, 0, 2, FLOW_BYTES, 0.0),
                      Flow(1, 1, 2, FLOW_BYTES, 0.0)],
        config=sim_config())


def _scoreboards(result) -> list:
    """The ``sacked`` set of every endpoint that keeps one (a
    receiver-driven endpoint's is its message state's)."""
    boards = []
    for host in result.topology.network.hosts.values():
        for endpoint in host.endpoints.values():
            owner = getattr(endpoint, "state", endpoint)
            if hasattr(owner, "sacked"):
                boards.append(owner.sacked)
    return boards


def _run():
    rows = []
    for name in SCHEME_NAMES:
        tracemalloc.start()
        try:
            result = run(SCHEMES[name](), _two_long_flows())
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        boards = _scoreboards(result)
        rows.append({"scheme": name, "completed": result.completed,
                     "peak_mb": peak / 1e6, "scoreboards": len(boards),
                     "retired_shared": sum(b is NO_SEQS for b in boards)})
    return {"rows": rows}


def test_long_flows_keep_window_sized_state(benchmark):
    rows = run_figure(benchmark, "Extension: traced peak of two 20 MB flows",
                      _run)["rows"]
    for row in rows:
        assert row["completed"] == 2, row
        assert row["peak_mb"] <= PEAK_MB, row
        # every end of both finished flows holds the shared empty set
        assert row["scoreboards"] >= 2, row
        assert row["retired_shared"] == row["scoreboards"], row
