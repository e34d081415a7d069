"""Hypothesis properties for the simulator's tick loop
(``Simulator._run_ticks``) against the test-side per-event reference
loop (``tests/runtime/reference_loop.py``), which both pop the heap
themselves.

The tick loop's determinism contract (docs/SCALE.md) reduces to these
guarantees, checked here over arbitrary schedules:

- *total canonical order*: the reference fires events in
  ``(time, priority, origin key, origin seq)`` order — the order
  ``Simulator._push`` keys the heap by — so two events at the same
  instant fire in a stable sequence, FIFO among ties of time, priority
  and origin;
- *same work per node*: the tick loop fires exactly the live events
  the reference fires, each at its own tick, and every group (node)
  sees its own events and the control events in the same order;
- *no time travel*: running to a tick fires exactly the events at
  that instant and never disturbs later events — so the clock can only
  move forward, which :class:`~repro.sim.clock.Clock` enforces by
  construction.
"""

from __future__ import annotations

from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.sim.clock import Clock
from repro.sim.simulator import Simulator
from tests.runtime.reference_loop import use_reference

# A schedule entry: (time, priority, okey, group).  Small domains force
# collisions so ties are exercised constantly, not occasionally; times
# are on the 0.01 grid (0.0 snaps to the first tick).
entries = st.tuples(
    st.sampled_from((0.0, 0.01, 0.02, 0.03, 1.5)),
    st.sampled_from((-1, 0, 1)),
    st.sampled_from(("", "a:1", "b:2")),
    st.sampled_from((None, "a:1", "b:2")),
)

schedules = st.lists(entries, max_size=40)


@st.composite
def schedules_with_kills(draw):
    """A schedule, and ``{i: j}``: event ``i`` cancels event ``j`` as it
    fires, the way a crash cancels a node's timers — a control event
    any event, a node's event only that node's (nodes do not interact
    within a tick)."""
    schedule = draw(schedules)
    index = st.integers(0, max(len(schedule) - 1, 0))
    pairs = draw(st.lists(st.tuples(index, index), max_size=8))
    kills = {
        i: j for i, j in pairs
        if i != j and schedule[i][3] in (None, schedule[j][3])
    }
    return schedule, kills

END = 2.0


def build(schedule, kernel, cancel=(), kills=None):
    """A simulator on the tick loop (``kernel``) or the reference with
    ``schedule`` queued; returns it, the event handles, and the list
    each firing appends ``(index, now)`` to.  Event ``i`` cancels event
    ``kills[i]`` when it fires."""
    sim = Simulator()
    if not kernel:
        use_reference(sim)
    fired = []
    handles = []
    kills = kills or {}

    def fire(i):
        fired.append((i, sim.now))
        if i in kills:
            handles[kills[i]].cancel()

    for i, (time, priority, okey, group) in enumerate(schedule):
        sim._origin = okey  # the entity whose turn schedules it
        handles.append(
            sim.schedule_at(
                time, partial(fire, i), priority=priority, group=group
            )
        )
    sim._origin = ""
    for i in cancel:
        if i < len(handles):
            handles[i].cancel()
    return sim, handles, fired


def projection(fired, schedule, group):
    """The firings one group observes: its own events and control's."""
    return [
        i for i, _ in fired if schedule[i][3] in (group, None)
    ]


@settings(max_examples=200, deadline=None)
@given(schedule=schedules)
def test_pop_order_is_canonical_and_fifo_among_ties(schedule):
    sim, handles, fired = build(schedule, kernel=False)
    sim.run_until(END)
    order = [i for i, _ in fired]
    assert sorted(order) == list(range(len(schedule)))
    keys = [handles[i].sort_key() for i in order]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)  # total: no two events tie
    # Among ties of (time, priority, origin) the firing order is the
    # scheduling order.
    for n in range(1, len(order)):
        if keys[n - 1][:3] == keys[n][:3]:
            assert order[n - 1] < order[n]


@settings(max_examples=200, deadline=None)
@given(case=schedules_with_kills(), cancel=st.sets(st.integers(0, 39)))
def test_batch_drain_equals_per_event_pops(case, cancel):
    """Tick draining is pure regrouping: the same live events, each at
    its own time, in the same order as seen from every group — and no
    event from a later instant ever leaks into an earlier tick.  An
    event cancelled earlier in its own tick fires on neither loop."""
    schedule, kills = case
    kernel, k_handles, k_fired = build(schedule, True, cancel, kills)
    plain, p_handles, p_fired = build(schedule, False, cancel, kills)
    kernel.run_until(END)
    plain.run_until(END)

    live = {i for i, _ in p_fired}
    uncancelled = set(range(len(schedule))) - cancel
    assert live <= uncancelled
    if not kills:
        assert live == uncancelled
    assert sorted(i for i, _ in k_fired) == sorted(live)
    assert all(now == k_handles[i].time for i, now in k_fired)
    times = [now for _, now in k_fired]
    assert times == sorted(times)
    assert sorted(k_fired) == sorted(p_fired)
    for group in ("a:1", "b:2"):
        assert projection(k_fired, schedule, group) == projection(
            p_fired, schedule, group
        )
    assert plain.events_processed == len(live)
    # The tick loop counts an event cancelled earlier in its own tick as
    # processed (it counts a tick's events before running them).
    assert kernel.events_processed >= len(live)
    if not kills:
        assert kernel.events_processed == len(live)
    assert kernel.ticks == len(set(times))


@settings(max_examples=100, deadline=None)
@given(schedule=schedules, kernel=st.booleans())
def test_drain_never_skips_pending_earlier_work(schedule, kernel):
    sim, handles, fired = build(schedule, kernel=kernel)
    if not handles:
        return
    t = min(h.time for h in handles)
    sim.run_until(t)
    assert sorted(i for i, _ in fired) == [
        i for i, h in enumerate(handles) if h.time == t
    ]
    assert all(now == t for _, now in fired)
    assert sim.pending_events == sum(1 for h in handles if h.time > t)


@settings(max_examples=100, deadline=None)
@given(
    times=st.lists(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        min_size=1,
        max_size=20,
    )
)
def test_clock_never_moves_backwards(times):
    clock = Clock()
    high = 0.0
    for when in times:
        if when >= high:
            clock.advance_to(when)
            high = when
        else:
            with pytest.raises(SimulationError):
                clock.advance_to(when)
        assert clock.now == high


def test_len_counts_only_live_events():
    sim = Simulator()
    handles = [sim.schedule_at(0.01, lambda: None) for _ in range(5)]
    handles[1].cancel()
    handles[4].cancel()
    assert sim.pending_events == 3
    sim.run_until(0.01)
    assert sim.events_processed == 3
    assert sim.pending_events == 0
