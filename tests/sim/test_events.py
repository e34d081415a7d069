"""Event ordering as the loops see it: every case runs under both the
simulator's tick loop and the test-side per-event reference loop
(``tests/runtime/reference_loop.py``), which pop the queue's heap
themselves."""

from repro.sim.simulator import Simulator
from tests.runtime.reference_loop import use_reference


def loops():
    """A fresh simulator on each loop: the reference, the tick loop."""
    plain = Simulator()
    use_reference(plain)
    return plain, Simulator()


def test_pop_in_time_order():
    for sim in loops():
        fired = []
        sim.schedule_at(2.0, lambda: fired.append("b"))
        sim.schedule_at(1.0, lambda: fired.append("a"))
        sim.schedule_at(3.0, lambda: fired.append("c"))
        sim.run_until(5.0)
        assert fired == ["a", "b", "c"]


def test_same_time_events_fire_in_scheduling_order():
    for sim in loops():
        order = []
        for i in range(10):
            sim.schedule_at(1.0, lambda i=i: order.append(i))
        sim.schedule_at(0.5, lambda: order.append("early"))
        sim.run_until(1.0)
        assert order == ["early", *range(10)]
    assert (sim.ticks, sim.max_tick_events) == (2, 10)


def test_priority_breaks_ties_before_sequence():
    for sim in loops():
        order = []
        sim.schedule_at(1.0, lambda: order.append("low"), priority=1)
        sim.schedule_at(1.0, lambda: order.append("high"), priority=0)
        sim.run_until(1.0)
        assert order == ["high", "low"]


def test_cancelled_events_are_skipped():
    for sim in loops():
        fired = []
        handle = sim.schedule_at(1.0, lambda: fired.append("x"))
        sim.schedule_at(2.0, lambda: fired.append("y"))
        handle.cancel()
        sim.run_until(5.0)
        assert fired == ["y"]
        assert sim.events_processed == 1


def test_len_excludes_cancelled():
    for sim in loops():
        handle = sim.schedule_at(1.0, lambda: None)
        sim.schedule_at(2.0, lambda: None)
        assert sim.pending_events == 2
        handle.cancel()
        assert sim.pending_events == 1


def test_peek_time_skips_cancelled():
    """A tick whose every event was cancelled runs nothing: the next
    live event is the first to run, at its own time."""
    for sim in loops():
        seen = []
        first = sim.schedule_at(1.0, lambda: seen.append(sim.now))
        sim.schedule_at(2.0, lambda: seen.append(sim.now))
        first.cancel()
        sim.run_until(5.0)
        assert seen == [2.0]
    assert sim.ticks == 1


def test_peek_time_empty():
    for sim in loops():
        sim.run_until(3.0)
        assert sim.now == 3.0
        assert sim.events_processed == 0
    assert sim.ticks == 0
