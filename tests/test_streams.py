"""Streaming flow sources: bit-identity, pickling, memory flatness.

The headline gates (the generator's draws themselves are pinned by a
digest in ``test_generator.py``):

* a *run* over a streamed scenario is bit-identical to the same run
  over the materialized list, across schemes and fabrics, including a
  kill/resume from a checkpoint taken while the stream was only partly
  consumed;
* draining a stream holds O(1) memory no matter how many flows pass
  through it.
"""

import math
import pickle
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.experiments.runner as runner_mod
from repro.core.ppt import Ppt
from repro.experiments.parallel import GridTask, run_grid
from repro.experiments.runner import run
from repro.experiments.scenarios import (
    HOMA_RTT_BYTES_SIM,
    all_to_all_scenario,
    sim_fabric,
    soak_scenario,
    star_fabric,
)
from repro.metrics.flowtable import UNFINISHED
from repro.resilience.checkpoint import load_checkpoint, save_checkpoint
from repro.transport.dctcp import Dctcp
from repro.transport.homa import Homa
from repro.units import gbps
from repro.workloads import (
    WORKLOADS,
    MergedStream,
    PoissonFlowStream,
    TenantClass,
    flow_stream,
    parse_tenant_mix,
    tenant_mix_stream,
)
from repro.workloads.distributions import MEMCACHED_W1, WEB_SEARCH
from repro.workloads.patterns import all_to_all


def flow_tuples(flows):
    return [(f.flow_id, f.src, f.dst, f.size, f.start_time) for f in flows]


def fct_fingerprint(result):
    return [(f.flow_id, f.completed, repr(f.fct)) for f in result.flows]


# ---------------------------------------------------------------------------
# the Poisson stream
# ---------------------------------------------------------------------------


def test_materialize_respects_limit_and_unbounded_guard():
    """Every stream is finite: ``materialize()`` drains the rest of it
    and stops at ``n_flows``."""
    stream = PoissonFlowStream(all_to_all(range(4)), WEB_SEARCH, load=0.5,
                               link_rate=gbps(10), n_flows=40, seed=1,
                               n_senders=4)
    head = [next(stream) for _ in range(25)]
    tail = stream.materialize()
    assert [f.flow_id for f in head + tail] == list(range(40))
    assert stream.materialize() == []


def test_stream_rejects_self_pair_pattern():
    stream = PoissonFlowStream(lambda rng: (2, 2), WEB_SEARCH, load=0.5,
                               link_rate=gbps(10), n_flows=5, seed=1)
    with pytest.raises(ValueError, match="src == dst"):
        next(stream)


# ---------------------------------------------------------------------------
# pickling: the stream's cursor and RNG survive mid-iteration
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("make", [
    lambda: PoissonFlowStream(all_to_all(range(8)), WEB_SEARCH, load=0.5,
                              link_rate=gbps(40), n_flows=60, n_senders=8,
                              seed=9),
    lambda: tenant_mix_stream(
        [TenantClass("web-search", WEB_SEARCH, 3.0),
         TenantClass("memcached-w1", MEMCACHED_W1, 1.0)],
        all_to_all(range(8)), load=0.5, link_rate=gbps(40), n_flows=60,
        n_senders=8, seed=9),
])
def test_pickle_mid_stream_continues_exact_sequence(make):
    ref = make().materialize()
    stream = make()
    head = [next(stream) for _ in range(23)]
    clone = pickle.loads(pickle.dumps(stream))
    tail_orig = stream.materialize()
    tail_clone = clone.materialize()
    assert flow_tuples(tail_clone) == flow_tuples(tail_orig)
    assert flow_tuples(head + tail_clone) == flow_tuples(ref)


# ---------------------------------------------------------------------------
# streamed runs are bit-identical to materialized runs
# ---------------------------------------------------------------------------


SCHEMES = {
    "dctcp": Dctcp,
    "ppt": Ppt,
    "homa": lambda: Homa(rtt_bytes=HOMA_RTT_BYTES_SIM),
}
FABRICS = {
    "star": lambda: star_fabric(6),
    "leaf-spine": lambda: sim_fabric(n_leaf=2, n_spine=2, hosts_per_leaf=3),
}


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
@pytest.mark.parametrize("fabric", sorted(FABRICS))
def test_streamed_run_bit_identical(scheme, fabric):
    def scenario(name, stream):
        return all_to_all_scenario(name, WEB_SEARCH, n_flows=40,
                                   max_time=2.0, size_cap=150_000,
                                   fabric=FABRICS[fabric](), stream=stream)

    materialized = run(SCHEMES[scheme](), scenario("m", False))
    streamed = run(SCHEMES[scheme](), scenario("s", True))
    assert fct_fingerprint(streamed) == fct_fingerprint(materialized)
    assert streamed.wall_events == materialized.wall_events
    assert streamed.health == materialized.health


def test_early_stop_counts_every_declared_flow():
    """A streamed run cut short by ``max_time`` holds only the flows it
    pulled; its completion rate and summary still count all the flows
    the scenario declares, as the list form does."""
    def scenario(stream):
        return all_to_all_scenario("early", WEB_SEARCH, n_flows=400,
                                   max_time=0.0005, seed=7, stream=stream)

    listed = run(Dctcp(), scenario(False))
    streamed = run(Dctcp(), scenario(True))
    assert len(streamed.flows) < len(listed.flows) == 400
    assert streamed.health.completion_rate == listed.health.completion_rate \
        == listed.completed / 400
    assert streamed.summary() == listed.summary()


def test_early_stop_table_has_one_row_per_pulled_flow():
    """The per-flow table of a run cut short holds the pulled flows, the
    unfinished ones under a sentinel that compares equal across runs."""
    def early():
        return run(Dctcp(), all_to_all_scenario(
            "early", WEB_SEARCH, n_flows=400, max_time=0.0005, seed=7,
            stream=True))

    result = early()
    table = result.table
    assert len(table) == len(result.flows) < result.health.n_flows
    assert list(table.flow_id) == [f.flow_id for f in result.flows]
    assert UNFINISHED in table.fct
    assert [fct for fct in table.fct if fct != UNFINISHED] \
        == [f.fct for f in result.flows if f.fct is not None]
    assert early().table == table


def test_streamed_run_bit_identical_with_tenant_mix():
    mix = [TenantClass("web-search", WEB_SEARCH, 3.0),
           TenantClass("memcached-w1", MEMCACHED_W1, 1.0)]

    def scenario(name, stream):
        return all_to_all_scenario(name, WEB_SEARCH, n_flows=40,
                                   max_time=2.0, size_cap=150_000,
                                   tenants=mix, stream=stream)

    a = run(Dctcp(), scenario("m", False))
    b = run(Dctcp(), scenario("s", True))
    assert fct_fingerprint(a) == fct_fingerprint(b)
    assert a.wall_events == b.wall_events


def test_mid_stream_checkpoint_resume_bit_identical(tmp_path, monkeypatch):
    """Kill a streamed soak at its *first* snapshot — taken while the
    stream has emitted only a handful of its flows — and resume: the
    half-consumed stream rides inside the checkpoint and the finished
    run is bit-identical to one that never stopped."""
    def scenario(name):
        return soak_scenario(name, horizon=60.0, stream=True,
                             fault_period=None)

    straight = run(Dctcp(), scenario("straight"))
    path = tmp_path / "midstream.ckpt"
    taken = []

    def first_only(state, p):
        if not taken:
            taken.append(True)
            return save_checkpoint(state, p)
        return state.header()

    monkeypatch.setattr(runner_mod, "save_checkpoint", first_only)
    checkpointed = run(Dctcp(), scenario("ck"), checkpoint_every=0.0,
                       checkpoint_path=path)
    monkeypatch.undo()
    assert fct_fingerprint(checkpointed) == fct_fingerprint(straight)

    state = load_checkpoint(path)
    assert len(state.flows) < state.total_flows, \
        "snapshot must land mid-stream for this gate to mean anything"
    resumed = run(resume=state)
    assert fct_fingerprint(resumed) == fct_fingerprint(straight)
    assert resumed.wall_events == straight.wall_events
    assert resumed.health == straight.health


def test_run_grid_streamed_matches_serial():
    def scenario_factory(**params):
        return all_to_all_scenario("grid", WEB_SEARCH, n_flows=30,
                                   max_time=2.0, size_cap=150_000,
                                   stream=True, **params)

    tasks = [GridTask(scheme_factory=Dctcp,
                      scenario_factory=scenario_factory,
                      params={"seed": seed}, label=f"seed={seed}")
             for seed in (1, 2, 3, 4)]
    serial = run_grid(tasks, jobs=1)
    parallel = run_grid(tasks, jobs=2)
    assert [(s.stats, s.health) for s in serial] == \
           [(s.stats, s.health) for s in parallel]
    assert all(s.health.n_flows == 30 for s in serial)


# ---------------------------------------------------------------------------
# memory flatness
# ---------------------------------------------------------------------------


def test_stream_memory_stays_flat():
    """Draining 200k flows through a stream must not accumulate them:
    peak traced allocation stays orders of magnitude below what the
    materialized list of the same flows costs."""
    n = 200_000
    stream = PoissonFlowStream(all_to_all(range(16)), WEB_SEARCH, load=0.5,
                               link_rate=gbps(40), n_flows=n, n_senders=16,
                               seed=1, size_cap=1_000_000)
    tracemalloc.start()
    count = 0
    last = None
    for flow in stream:
        count += 1
        last = flow
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert count == n
    assert last.flow_id == n - 1
    # one Flow is ~200B materialized; 200k of them are tens of MB.  The
    # drain holds one look-ahead flow, so its peak is bounded by a
    # constant — 256KB leaves 100x headroom over observed (~2KB).
    assert peak < 256 * 1024, f"stream drain peaked at {peak} bytes"


# ---------------------------------------------------------------------------
# ordering properties
# ---------------------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31),
       shares=st.lists(st.floats(0.1, 5.0), min_size=1, max_size=4),
       n_flows=st.integers(1, 120))
def test_merged_streams_nondecreasing_and_ids_disjoint(seed, shares, n_flows):
    names = sorted(WORKLOADS)
    classes = [TenantClass(names[i % len(names)],
                           WORKLOADS[names[i % len(names)]], share)
               for i, share in enumerate(shares)]
    stream = tenant_mix_stream(classes, all_to_all(range(6)), load=0.5,
                               link_rate=gbps(10), n_flows=n_flows,
                               n_senders=6, seed=seed, size_cap=1_000_000)
    flows = stream.materialize()
    assert len(flows) == n_flows
    times = [f.start_time for f in flows]
    assert times == sorted(times)
    # the per-class id blocks are contiguous and disjoint: together they
    # tile [0, n_flows) exactly
    assert sorted(f.flow_id for f in flows) == list(range(n_flows))


def test_merged_stream_rejects_backwards_source():
    class Backwards(PoissonFlowStream):
        def __next__(self):
            flow = super().__next__()
            self._now = 0.0  # sabotage the ordering contract
            return flow

    bad = Backwards(all_to_all(range(4)), WEB_SEARCH, load=0.5,
                    link_rate=gbps(10), n_flows=10, n_senders=4, seed=1)
    merged = MergedStream([bad])
    with pytest.raises(ValueError, match="backwards"):
        list(merged)


# ---------------------------------------------------------------------------
# tenant mixes
# ---------------------------------------------------------------------------


def test_tenant_mix_class_size_caps_enforced():
    classes = [TenantClass("web-search", WEB_SEARCH, 1.0, size_cap=50_000),
               TenantClass("memcached-w1", MEMCACHED_W1, 1.0)]
    flows = tenant_mix_stream(classes, all_to_all(range(4)), load=0.5,
                              link_rate=gbps(10), n_flows=200, n_senders=4,
                              seed=1).materialize()
    # class 0 owns ids [0, 100): its override cap binds there
    assert max(f.size for f in flows if f.flow_id < 100) <= 50_000


def test_parse_tenant_mix_specs():
    assert parse_tenant_mix(None) is None
    mix = parse_tenant_mix("web-search:3,memcached-w1:1")
    assert [(c.name, c.share) for c in mix] == \
           [("web-search", 3.0), ("memcached-w1", 1.0)]
    for bad in ("web-search", "nope:1", "web-search:0", "web-search:x", ","):
        with pytest.raises(ValueError):
            parse_tenant_mix(bad)
    for bad in ("web-search:nan", "web-search:inf", "web-search:-inf"):
        with pytest.raises(ValueError, match="share must be positive"):
            parse_tenant_mix(bad)


@pytest.mark.parametrize("share", [math.nan, math.inf, 0.0, -1.0])
def test_tenant_class_refuses_a_share_not_positive_and_finite(share):
    """The library API used to take a NaN or infinite share and fail
    later in ``tenant_mix_stream`` with "cannot convert float NaN to
    integer"; the class owns the rule the CLI's parser applies."""
    with pytest.raises(ValueError, match="share must be positive and finite"):
        TenantClass("web-search", WEB_SEARCH, share)


@pytest.mark.parametrize("size_cap", [0, -1])
def test_flow_stream_refuses_a_non_positive_size_cap(size_cap):
    """A zero cap used to divide by the zero capped mean."""
    with pytest.raises(ValueError, match="size_cap must be positive"):
        flow_stream(all_to_all(range(4)), WEB_SEARCH, load=0.5,
                    link_rate=gbps(10), n_flows=10, size_cap=size_cap)


def test_flow_stream_front_door_dispatch():
    base = dict(load=0.5, link_rate=gbps(10), n_flows=10, n_senders=4)
    assert isinstance(flow_stream(all_to_all(range(4)), WEB_SEARCH, **base),
                      PoissonFlowStream)
    assert isinstance(
        flow_stream(all_to_all(range(4)), WEB_SEARCH,
                    tenants=[TenantClass("web-search", WEB_SEARCH, 1.0)],
                    **base),
        MergedStream)
