"""Unit tests for the discrete-event engine."""

import ast
import weakref
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim import engine
from repro.sim.engine import COMPACT_FLOOR, Simulator


def test_schedule_and_run_in_order():
    sim = Simulator()
    fired = []
    sim.schedule(2e-3, fired.append, "b")
    sim.schedule(1e-3, fired.append, "a")
    sim.schedule(3e-3, fired.append, "c")
    sim.run()
    assert fired == ["a", "b", "c"]
    assert sim.now == pytest.approx(3e-3)


def test_same_time_events_fire_in_insertion_order():
    sim = Simulator()
    fired = []
    for label in range(10):
        sim.schedule(1e-3, fired.append, label)
    sim.run()
    assert fired == list(range(10))


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.schedule(-1e-9, lambda: None)


def test_tiny_negative_delay_clamped_to_zero():
    # float round-off from `t_abs - now` arithmetic must not kill a run
    sim = Simulator()
    fired = []
    sim.schedule(-1e-15, fired.append, 1)
    sim.run()
    assert fired == [1]
    assert sim.now == 0.0


def test_genuinely_negative_delay_still_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.schedule(-1e-6, lambda: None)


def test_zero_delay_allowed():
    sim = Simulator()
    fired = []
    sim.schedule(0.0, fired.append, 1)
    sim.run()
    assert fired == [1]


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    event = sim.schedule(1e-3, fired.append, "x")
    sim.schedule(0.5e-3, fired.append, "y")
    event.cancel()
    sim.run()
    assert fired == ["y"]


def test_cancel_is_idempotent():
    sim = Simulator()
    event = sim.schedule(1e-3, lambda: None)
    event.cancel()
    event.cancel()
    assert sim.run() == 0


def test_a_cancelled_handle_does_not_pin_its_callbacks_owner():
    """A corpse waits in the heap until popped or swept; the retired
    sender its callback was bound to must be freed before that."""

    class Owner:
        def fire(self, arg):
            pass

    class Arg:
        pass

    sim = Simulator()
    owner, arg = Owner(), Arg()
    owner_ref, arg_ref = weakref.ref(owner), weakref.ref(arg)
    sim.schedule(1e-3, owner.fire, arg).cancel()
    del owner, arg
    assert sim.pending == 1 and sim.live_pending == 0   # corpse resident
    assert owner_ref() is None and arg_ref() is None
    assert sim.run() == 0


def test_run_until_stops_before_later_events():
    sim = Simulator()
    fired = []
    sim.schedule(1e-3, fired.append, "early")
    sim.schedule(5e-3, fired.append, "late")
    sim.run(until=2e-3)
    assert fired == ["early"]
    assert sim.now == pytest.approx(2e-3)
    sim.run()
    assert fired == ["early", "late"]


def test_run_until_advances_clock_when_heap_empties():
    sim = Simulator()
    sim.run(until=7e-3)
    assert sim.now == pytest.approx(7e-3)


def test_events_scheduled_during_run_are_executed():
    sim = Simulator()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 4:
            sim.schedule(1e-6, chain, n + 1)

    sim.schedule(0.0, chain, 0)
    sim.run()
    assert fired == [0, 1, 2, 3, 4]


def test_schedule_at_absolute_time():
    sim = Simulator()
    fired = []
    sim.schedule(1e-3, lambda: sim.schedule_at(5e-3, fired.append, "x"))
    sim.run()
    assert fired == ["x"]
    assert sim.now == pytest.approx(5e-3)


def test_max_events_bound():
    sim = Simulator()
    for i in range(10):
        sim.schedule(i * 1e-6, lambda: None)
    assert sim.run(max_events=3) == 3
    assert sim.run() == 7


def test_step_executes_one_event():
    """Single-stepping is ``run(max_events=1)``."""
    sim = Simulator()
    fired = []
    sim.schedule(1e-6, fired.append, 1)
    sim.schedule(2e-6, fired.append, 2)
    assert sim.run(max_events=1) == 1
    assert fired == [1]
    assert sim.now == pytest.approx(1e-6)
    assert sim.run(max_events=1) == 1
    assert sim.run(max_events=1) == 0


def test_peek_time_skips_cancelled():
    sim = Simulator()
    first = sim.schedule(1e-6, lambda: None)
    sim.schedule(2e-6, lambda: None)
    first.cancel()
    assert sim.peek_time() == pytest.approx(2e-6)


def test_events_run_counter():
    sim = Simulator()
    for i in range(5):
        sim.schedule(i * 1e-6, lambda: None)
    sim.run()
    assert sim.events_run == 5


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1,
                max_size=50))
def test_events_always_fire_in_nondecreasing_time_order(delays):
    """Property: whatever the scheduling order, execution time is
    non-decreasing."""
    sim = Simulator()
    times = []
    for delay in delays:
        sim.schedule(delay, lambda: times.append(sim.now))
    sim.run()
    assert len(times) == len(delays)
    assert times == sorted(times)


def test_live_pending_excludes_cancelled_entries():
    sim = Simulator()
    sim.schedule(1e-3, lambda: None)
    dead = sim.schedule(2e-3, lambda: None)
    dead.cancel()
    assert sim.pending == 2       # raw heap length counts the corpse
    assert sim.live_pending == 1  # diagnostics must not


def test_budget_break_does_not_jump_clock():
    """Regression: a ``run(until, max_events)`` slice that stops on the
    event budget must NOT fast-forward the clock past still-pending
    events — the next slice would then execute them with time going
    backwards, corrupting every RTT sample taken in between."""
    sim = Simulator()
    for i in range(5):
        sim.schedule(i * 1e-3, lambda: None)
    sim.run(until=10e-3, max_events=2)
    # stopped at the second event's time, not at `until`
    assert sim.now == pytest.approx(1e-3)
    # resuming drains the rest and only then advances to `until`
    times = []
    sim.schedule_at(2e-3, lambda: times.append(sim.now))
    sim.run(until=10e-3)
    assert times == [pytest.approx(2e-3)]
    assert sim.now == pytest.approx(10e-3)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1,
                max_size=40), st.data())
def test_clock_monotonic_across_sliced_budgeted_draining(delays, data):
    """Property: however a drain is sliced (`until` steps) and budgeted
    (`max_events`), the observable clock — event fire times and the
    post-slice ``sim.now`` — never decreases, and no event is lost."""
    sim = Simulator()
    observed = []  # interleaved event fire times and slice-end clocks
    for delay in delays:
        sim.schedule(delay, lambda: observed.append(sim.now))
    fired_total = 0
    t = 0.0
    while sim.peek_time() is not None:
        t += data.draw(st.floats(min_value=0.01, max_value=0.4))
        budget = data.draw(st.integers(min_value=1, max_value=4))
        fired_total += sim.run(until=t, max_events=budget)
        observed.append(sim.now)
    assert fired_total == len(delays)
    assert observed == sorted(observed)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2,
                max_size=30), st.data())
def test_cancelling_any_subset_fires_exactly_the_rest(delays, data):
    sim = Simulator()
    events = [sim.schedule(d, lambda: None) for d in delays]
    to_cancel = data.draw(st.sets(
        st.integers(min_value=0, max_value=len(events) - 1)))
    for idx in to_cancel:
        events[idx].cancel()
    executed = sim.run()
    assert executed == len(events) - len(to_cancel)


# -- direct entries, kill, counters ------------------------------------------


def _dead_in_heap(sim):
    return sim.pending - sum(1 for _entry in sim.live_entries())


def test_direct_entries_interleave_with_handles_in_time_seq_order():
    """A direct entry is ``fn(arg)`` at its ``(time, seq)`` key: it sorts
    among handles by time first, then by the seq it was pushed under —
    reserved early or claimed on the spot."""
    sim = Simulator()
    fired = []
    early = sim.reserve_seq()                     # first place at t=2ms
    sim.schedule(2e-3, fired.append, "handle-a")
    sim.schedule_direct(2e-3, sim.reserve_seq(), fired.append, "direct-b")
    sim.schedule(2e-3, fired.append, "handle-c")
    sim.schedule_direct(1e-3, sim.reserve_seq(), fired.append, "direct-first")
    sim.schedule_direct(2e-3, early, fired.append, "direct-reserved")
    assert sim.pending == sim.live_pending == 5
    assert sim.run() == 5
    assert fired == ["direct-first", "direct-reserved", "handle-a",
                     "direct-b", "handle-c"]
    assert sim.events_run == 5


def test_kill_leaves_a_corpse_that_is_skipped_and_swept():
    sim = Simulator()
    fired = []
    seq = sim.reserve_seq()
    sim.schedule_direct(1e-3, seq, fired.append, "revoked")
    sim.schedule_direct(1e-3, sim.reserve_seq(), fired.append, "kept")
    sim.kill(seq)
    assert sim.pending == 2                       # corpse, same key, resident
    assert sim._dead == 1 == _dead_in_heap(sim)
    assert sim.live_pending == 1
    assert sim.peek_time() == 1e-3
    assert sim.run() == 1                         # skipped, not counted
    assert fired == ["kept"]
    assert sim.events_run == 1
    assert sim._dead == 0

    seq = sim.reserve_seq()
    sim.schedule_direct(2e-3, seq, fired.append, "revoked")
    sim.kill(seq)
    assert sim.sweep() == 1                       # sweep() removes it too
    assert sim.pending == 0 and sim._dead == 0


def test_kill_of_an_unknown_seq_raises():
    sim = Simulator()
    handle_seq = sim._seq + 1
    sim.schedule(1e-3, lambda: None)              # a handle: cancel() it
    for seq in (handle_seq, sim.reserve_seq()):
        with pytest.raises(ValueError, match="no direct entry"):
            sim.kill(seq)
    assert sim._dead == 0


def test_counters_survive_a_raising_callback():
    """``events_run`` and ``live_pending`` stay true when a callback
    raises out of ``run()``: what was dispatched is counted, what is
    left is what the heap holds."""

    def boom():
        raise RuntimeError("callback failed")

    sim = Simulator()
    for i in range(5):
        sim.schedule(i * 1e-6, lambda: None)
    sim.schedule(5e-6, boom)
    sim.schedule(6e-6, lambda: None)
    with pytest.raises(RuntimeError, match="callback failed"):
        sim.run()
    assert sim.pending == 1
    assert sim.live_pending == 1
    assert sim.events_run == 6                    # the raising one fired
    assert sim.run() == 1
    assert sim.events_run == 7


def test_only_the_engine_knows_the_entry_layout():
    """Source scan: outside ``sim/engine.py`` the simulator's heap is
    only ever pushed a 4-tuple literal (the inlined ``schedule_direct``
    sites), and nothing else constructs an ``Event``."""
    root = Path(engine.__file__).parents[1]
    pushes = 0
    for path in root.rglob("*.py"):
        if path == root / "sim" / "engine.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            assert name != "Event", f"{path}:{node.lineno} builds an Event"
            if name == "heappush" and path.parent == root / "sim":
                pushes += 1
                entry = node.args[1]
                assert isinstance(entry, ast.Tuple) and len(entry.elts) == 4, \
                    f"{path}:{node.lineno} pushes {ast.unparse(entry)}"
    assert pushes == 4            # the four sites schedule_direct names


def test_cancel_after_fire_is_noop_for_live_counter():
    """The run loop marks fired events, so a late cancel() on a handle
    the caller kept must not decrement the live counter."""
    sim = Simulator()
    event = sim.schedule(1e-3, lambda: None)
    sim.schedule(2e-3, lambda: None)
    sim.run(until=1.5e-3)
    assert sim.live_pending == 1
    event.cancel()
    event.cancel()
    assert sim.live_pending == 1
    assert sim.peek_time() == 2e-3


# -- pure peek / explicit sweep --------------------------------------------


def test_peek_time_does_not_mutate_heap():
    """peek_time() is a pure read even when the head is a corpse;
    sweep() is the explicit way to drop cancelled entries."""
    sim = Simulator()
    head = sim.schedule(1e-3, lambda: None)
    sim.schedule(2e-3, lambda: None)
    head.cancel()
    entries_before = sim.pending
    assert sim.peek_time() == 2e-3
    assert sim.pending == entries_before        # nothing popped
    assert sim.sweep() == 1                     # explicit corpse removal
    assert sim.pending == entries_before - 1
    assert sim.peek_time() == 2e-3


def test_sweep_on_clean_heap_is_noop():
    sim = Simulator()
    sim.schedule(1e-3, lambda: None)
    assert sim.sweep() == 0
    assert sim.pending == 1


# -- dead entries are bounded ----------------------------------------------


def test_cancel_compacts_once_dead_outnumber_live():
    """cancel() drops the corpses as soon as they outnumber the live
    entries past the floor — and not a cancel earlier."""
    sim = Simulator()
    fired = []
    timers = [sim.schedule(1.0 + i, fired.append, i)
              for i in range(COMPACT_FLOOR + 1)]
    keep = [sim.schedule(0.5, fired.append, "kept")]
    for timer in timers[:-1]:
        timer.cancel()
    # at the floor: every corpse is still resident
    assert sim._dead == COMPACT_FLOOR
    assert sim.pending == COMPACT_FLOOR + 2
    timers[-1].cancel()
    assert sim._dead == 0
    assert sim.pending == sim.live_pending == len(keep)
    seq_before = sim._seq
    sim.run()
    assert fired == ["kept"]
    assert sim._seq == seq_before                 # compaction claims no seq


def test_live_majority_defers_compaction():
    """Past the floor, corpses stay while live entries outnumber them."""
    sim = Simulator()
    live = [sim.schedule(2.0, lambda: None) for _ in range(3 * COMPACT_FLOOR)]
    dead = [sim.schedule(1.0, lambda: None) for _ in range(2 * COMPACT_FLOOR)]
    for event in dead:
        event.cancel()
    assert sim._dead == len(dead)
    assert sim.pending == len(live) + len(dead)
    # the run loop pops the corpses (they sort first) and accounts them
    sim.run(until=1.5)
    assert sim._dead == 0
    assert sim.pending == len(live)


def test_dead_counter_ignores_late_and_double_cancel():
    sim = Simulator()
    fired = sim.schedule(1e-3, lambda: None)
    pending = sim.schedule(2e-3, lambda: None)
    sim.run(until=1.5e-3)
    fired.cancel()                                # already went off
    assert sim._dead == 0
    pending.cancel()
    pending.cancel()
    assert sim._dead == 1 == _dead_in_heap(sim)


def test_compaction_inside_a_callback_keeps_the_run_loop_on_one_heap():
    """A callback that cancels enough timers to trigger compaction runs
    while the loop holds the heap list as a local; events it schedules
    afterwards, and the survivors, must still fire."""
    sim = Simulator()
    heap = sim._heap
    fired = []
    timers = [sim.schedule(5.0, fired.append, "timer")
              for _ in range(2 * COMPACT_FLOOR)]

    def purge():
        for timer in timers:
            timer.cancel()
        sim.schedule(1.0, fired.append, "after-purge")

    sim.schedule(1.0, purge)
    sim.schedule(3.0, fired.append, "survivor")
    sim.run()
    assert fired == ["after-purge", "survivor"]
    assert sim._heap is heap
    assert sim.peak_pending == 2 * COMPACT_FLOOR + 2


class _NeverCompacts(Simulator):
    """The reference: corpses stay until a run loop pops them."""

    def sweep(self) -> int:
        return 0


_OPS = st.one_of(
    # schedule(delay); on firing optionally cancel handles[i] and
    # optionally schedule a child
    st.tuples(st.just("schedule"), st.floats(min_value=0.0, max_value=1.0),
              st.one_of(st.none(), st.integers(min_value=0)),
              st.one_of(st.none(), st.floats(min_value=0.0, max_value=1.0))),
    st.tuples(st.just("cancel"), st.integers(min_value=0)),
    # schedule_direct(now + delay); on firing optionally push a child
    st.tuples(st.just("direct"), st.floats(min_value=0.0, max_value=1.0),
              st.one_of(st.none(), st.floats(min_value=0.0, max_value=1.0))),
    # kill() one of the direct entries still in the heap
    st.tuples(st.just("kill"), st.integers(min_value=0)),
    st.tuples(st.just("run_until"), st.floats(min_value=0.0, max_value=0.5)),
    st.tuples(st.just("run_events"), st.integers(min_value=1, max_value=5)),
)


def _replay(sim, ops, after_each=None):
    """Apply ``ops`` to ``sim``; the log of ``(id, time)`` fires."""
    handles, log = [], []
    direct = {}                   # seq -> id of direct entries not yet fired

    def fire(ident, cancel_idx, child_delay):
        log.append((ident, sim.now))
        if cancel_idx is not None:
            handles[cancel_idx % len(handles)].cancel()
        if child_delay is not None:
            handles.append(sim.schedule(child_delay, fire,
                                        (ident, "child"), None, None))

    def push_direct(ident, delay, child_delay):
        seq = sim.reserve_seq()
        direct[seq] = ident
        sim.schedule_direct(sim.now + delay, seq, fire_direct,
                            (seq, child_delay))

    def fire_direct(arg):
        seq, child_delay = arg
        ident = direct.pop(seq)
        log.append((ident, sim.now))
        if child_delay is not None:
            push_direct((ident, "child"), child_delay, None)

    for number, op in enumerate(ops):
        if op[0] == "schedule":
            handles.append(sim.schedule(op[1], fire, number, op[2], op[3]))
        elif op[0] == "cancel":
            if handles:
                handles[op[1] % len(handles)].cancel()
        elif op[0] == "direct":
            push_direct(number, op[1], op[2])
        elif op[0] == "kill":
            if direct:
                seq = sorted(direct)[op[1] % len(direct)]
                del direct[seq]
                sim.kill(seq)
        elif op[0] == "run_until":
            sim.run(until=sim.now + op[1])
        else:
            sim.run(max_events=op[1])
        if after_each is not None:
            after_each()
    sim.run()
    assert not direct
    return log


@settings(max_examples=200, deadline=None)
@given(st.lists(_OPS, max_size=120))
# fires, not cancels, leave two corpses behind one live entry: the
# bound has to be re-checked when a run ends, too
@example([("schedule", 0.9, None, None), ("schedule", 0.9, None, None),
          ("schedule", 0.6, None, None), ("schedule", 0.1, None, None),
          ("schedule", 0.1, None, None), ("cancel", 0), ("cancel", 1),
          ("run_until", 0.2)])
def test_compaction_never_changes_what_fires_or_when(ops):
    """Random interleavings of schedule / cancel (from outside and from
    inside callbacks) / direct push / kill / run fire exactly as on a
    simulator that never compacts, and dead entries stay bounded by the
    live ones."""
    floor = 1                     # tiny, so short programs compact often
    sim = Simulator()

    def bounded():
        assert sim._dead == _dead_in_heap(sim)
        assert sim.pending == sim.live_pending + sim._dead
        assert sim._dead <= max(floor, sim.live_pending)

    with mock.patch.object(engine, "COMPACT_FLOOR", floor):
        log = _replay(sim, ops, bounded)
        reference = _NeverCompacts()
        assert log == _replay(reference, ops)
    assert sim._seq == reference._seq
    assert sim.events_run == reference.events_run
    assert sim.pending == 0


def test_peak_pending_high_water_mark():
    sim = Simulator()
    for i in range(5):
        sim.schedule((i + 1) * 1e-3, lambda: None)
    assert sim.peak_pending == 5
    sim.run()
    assert sim.pending == 0
    assert sim.peak_pending == 5


# -- reserved seqs and event chains ----------------------------------------


def test_reserved_seq_keeps_tie_break_position():
    """An event inserted late with a reserved seq fires in the position
    the reservation claimed, not its insertion time."""
    sim = Simulator()
    fired = []
    seq = sim.reserve_seq()                       # claims first place
    sim.schedule(1e-3, fired.append, "second")    # same fire time
    sim.schedule_reserved(1e-3, seq, fired.append, "first")
    sim.run()
    assert fired == ["first", "second"]


def test_event_chain_is_one_heap_entry_and_fires_in_order():
    sim = Simulator()
    fired = []
    chain = sim.schedule_chain([
        (3e-3, fired.append, ("c",)),
        (1e-3, fired.append, ("a",)),
        (2e-3, fired.append, ("b",)),
    ])
    assert sim.pending == 1                       # N entries, 1 in heap
    sim.run(until=1.5e-3)
    assert fired == ["a"]
    assert sim.pending == 1                       # successor armed
    sim.run()
    assert fired == ["a", "b", "c"]
    assert chain.head_event is None               # exhausted
    assert sim.pending == 0


def test_event_chain_matches_individual_schedules():
    """Chained and individually scheduled events interleave identically
    with a same-instant competitor (seqs claimed in declaration order)."""

    def fire_order(use_chain):
        sim = Simulator()
        fired = []
        if use_chain:
            sim.schedule_chain([(1e-3, fired.append, ("x",))])
        else:
            sim.schedule_at(1e-3, fired.append, "x")
        sim.schedule_at(1e-3, fired.append, "y")
        sim.run()
        return fired

    assert fire_order(True) == fire_order(False) == ["x", "y"]


def test_event_chain_cancel_stops_remaining():
    sim = Simulator()
    fired = []
    chain = sim.schedule_chain([
        (1e-3, fired.append, ("a",)),
        (2e-3, fired.append, ("b",)),
    ])
    sim.run(until=1.5e-3)
    chain.cancel()
    sim.run()
    assert fired == ["a"]
    assert sim.live_pending == 0


def test_lazily_pulled_chain_fires_like_the_materialised_one():
    """One chain class: a counted source pulled one entry at a time uses
    the same (time, seq) keys as the same entries handed over as a list,
    so same-instant competitors interleave identically."""
    times = [1e-3, 1e-3, 2e-3, 3e-3]

    def fire_order(lazy):
        sim = Simulator()
        fired = []
        pulled = []

        def source():
            for i, t in enumerate(times):
                pulled.append(i)
                yield (t, fired.append, (f"chain{i}",))

        sim.schedule_at(1e-3, fired.append, "before")
        if lazy:
            sim.schedule_chain(source(), count=len(times))
            assert pulled == [0]                  # one look-ahead entry
        else:
            sim.schedule_chain(list(source()))
        sim.schedule_at(2e-3, fired.append, "after")
        assert sim.pending == 3
        sim.run()
        return fired

    assert fire_order(True) == fire_order(False) == [
        "before", "chain0", "chain1", "chain2", "after", "chain3"]


def test_chain_rejects_a_past_entry_when_declared():
    """Even one that sorts behind the head: the error belongs to the
    schedule_chain call, not to some later firing."""
    sim = Simulator()
    sim.schedule(1e-3, lambda: None)
    sim.run()
    with pytest.raises(ValueError, match="into the past"):
        sim.schedule_chain([(2e-3, print, ()), (0.5e-3, print, ())])
    assert sim.pending == 0


def test_lazily_pulled_chain_checks_order_and_count():
    sim = Simulator()
    sim.schedule_chain(iter([(2e-3, print, ()), (1e-3, print, ())]), count=2)
    with pytest.raises(ValueError, match="into the past"):
        sim.run()

    sim = Simulator()
    sim.schedule_chain(iter([(1e-3, int, ())]), count=2)
    with pytest.raises(ValueError, match="short of its declared count"):
        sim.run()

    sim = Simulator()
    sim.schedule_chain(iter([(1e-3, int, ()), (2e-3, int, ())]), count=1)
    with pytest.raises(ValueError, match="more entries than"):
        sim.run()
