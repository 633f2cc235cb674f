"""Extension: a short PPT flow pays only for the loop it uses.

A streamed Memcached W1 run (1-2 packet messages): a flow whose first
HCP window covers it has no LCP packet to send, so its case-1 loop is
booked at flow start and leaves nothing in the heap.  Both assertions
count (resident entries, engine events per flow), so box speed cannot
flake them.  Before booking, the 1,848 covered flows of this run each
left a zero-delay ``_open_case1`` in the heap and the run cost 39.07
events per flow.
"""

from conftest import run_figure
from repro.core.ppt import Ppt
from repro.experiments.runner import run
from repro.experiments.scenarios import all_to_all_scenario, sim_config
from repro.workloads.distributions import MEMCACHED_W1

N_FLOWS = 2_000
BOOKED_EVENTS_PER_FLOW = 37.22      # 74,437 events


class _CheckedPpt(Ppt):
    """PPT that counts flow starts leaving a loop entry in the heap
    although the first window covered the flow."""

    covered = resident = 0

    def start_flow(self, flow, ctx):
        super().start_flow(flow, ctx)
        sender = ctx.network.hosts[flow.src].endpoints[flow.flow_id]
        if sender.send_ptr >= sender.buffer_end() - 1:
            self.covered += 1
            self.resident += any(getattr(fn, "__self__", None) is sender.lcp
                                 for _time, fn, _args in ctx.sim.live_entries())


def _run():
    scheme = _CheckedPpt()
    result = run(scheme, all_to_all_scenario(
        "short-flow-events", MEMCACHED_W1, load=0.5, n_flows=N_FLOWS,
        size_cap=None, stream=True, seed=3,
        config=sim_config(demotion_thresholds=(2_000, 10_000, 30_000),
                          identification_threshold=30_000)))
    return {"rows": [{"flows": result.completed, "covered": scheme.covered,
                      "resident": scheme.resident,
                      "events_per_flow": result.wall_events / N_FLOWS}]}


def test_short_flows_book_their_empty_first_loop(benchmark):
    row = run_figure(benchmark, "Extension: events per short PPT flow",
                     _run)["rows"][0]
    assert row["flows"] == N_FLOWS and row["covered"] > N_FLOWS * 0.9
    assert row["resident"] == 0
    assert row["events_per_flow"] <= BOOKED_EVENTS_PER_FLOW
