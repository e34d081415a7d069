import pytest

from repro.errors import SimulationError
from repro.sim.simulator import Simulator


def test_schedule_and_run():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: fired.append(sim.now))
    sim.run_until(2.0)
    assert fired == [1.0]
    assert sim.now == 2.0


def test_run_until_leaves_clock_at_target_even_with_no_events():
    sim = Simulator()
    sim.run_until(7.5)
    assert sim.now == 7.5


def test_events_beyond_horizon_stay_queued():
    sim = Simulator()
    fired = []
    sim.schedule(5.0, lambda: fired.append("late"))
    sim.run_until(3.0)
    assert fired == []
    sim.run_until(6.0)
    assert fired == ["late"]


def test_run_for_is_relative():
    sim = Simulator()
    sim.run_for(2.0)
    sim.run_for(3.0)
    assert sim.now == 5.0


def test_cannot_schedule_in_the_past():
    sim = Simulator()
    sim.run_until(5.0)
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)
    with pytest.raises(SimulationError):
        sim.schedule_at(4.0, lambda: None)


def test_cannot_run_backwards():
    sim = Simulator()
    sim.run_until(5.0)
    with pytest.raises(SimulationError):
        sim.run_until(4.0)


def test_callbacks_can_schedule_more_events():
    sim = Simulator()
    fired = []

    def cascade():
        fired.append(sim.now)
        if len(fired) < 3:
            sim.schedule(1.0, cascade)

    sim.schedule(1.0, cascade)
    sim.run_until(10.0)
    assert fired == [1.0, 2.0, 3.0]


def test_events_processed_counter():
    sim = Simulator()
    for _ in range(5):
        sim.schedule(1.0, lambda: None)
    sim.run_until(2.0)
    assert sim.events_processed == 5


def test_periodic_timer_fires_repeatedly():
    sim = Simulator()
    fired = []
    sim.every(1.0, lambda: fired.append(sim.now))
    sim.run_until(5.5)
    assert fired == [1.0, 2.0, 3.0, 4.0, 5.0]


def test_periodic_timer_start_delay():
    sim = Simulator()
    fired = []
    sim.every(2.0, lambda: fired.append(sim.now), start_delay=0.5)
    sim.run_until(5.0)
    assert fired == [0.5, 2.5, 4.5]


def test_periodic_timer_cancel():
    sim = Simulator()
    fired = []
    timer = sim.every(1.0, lambda: fired.append(sim.now))
    sim.run_until(2.5)
    timer.cancel()
    sim.run_until(10.0)
    assert fired == [1.0, 2.0]


def test_periodic_timer_cancel_from_callback():
    sim = Simulator()
    fired = []
    holder = {}

    def once():
        fired.append(sim.now)
        holder["timer"].cancel()

    holder["timer"] = sim.every(1.0, once)
    sim.run_until(5.0)
    assert fired == [1.0]


def test_periodic_timer_rejects_nonpositive_period():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.every(0.0, lambda: None)


def test_periodic_jitter_is_deterministic():
    def trace(seed):
        sim = Simulator(seed=seed)
        fired = []
        sim.every(1.0, lambda: fired.append(sim.now), jitter=0.5)
        sim.run_until(10.0)
        return fired

    assert trace(1) == trace(1)
    assert trace(1) != trace(2)


def test_determinism_across_runs():
    def run():
        sim = Simulator(seed=7)
        log = []
        sim.every(0.3, lambda: log.append(("a", sim.now)))
        sim.every(0.7, lambda: log.append(("b", sim.now)))
        sim.run_until(10.0)
        return log

    assert run() == run()


@pytest.mark.parametrize("tick", [0.0, -0.01])
def test_tick_must_be_positive(tick):
    with pytest.raises(SimulationError):
        Simulator(tick=tick)


def test_scheduling_snaps_to_a_strictly_future_grid_point():
    """Off-grid times round up to the grid; an event due now waits one
    tick, so nothing joins a tick already being processed."""
    sim = Simulator(tick=0.01)
    fired = []

    def record(label):
        return lambda: fired.append((label, sim.now))

    sim.schedule(0.004, record("sub-tick"))
    sim.schedule(0.0, record("now"))
    sim.schedule(0.03, record("on-grid"))
    sim.schedule(0.03, lambda: sim.schedule(0.0, record("from a tick")))
    sim.run_until(1.0)
    assert fired == [
        ("sub-tick", 0.01), ("now", 0.01), ("on-grid", 0.03), ("from a tick", 0.04)
    ]
