"""Text reports: ring view, causal chains, dashboard."""

import pytest

from repro.analysis import trace_back
from repro.chord import ChordNetwork
from repro.core.system import System
from repro.faults import corrupt_best_succ
from repro.introspect import Tracer
from repro.monitors.base import Monitor
from repro.report import Dashboard, render_chain, render_ring


@pytest.fixture(scope="module")
def small_ring():
    net = ChordNetwork(num_nodes=5, seed=6)
    net.start()
    assert net.wait_stable(max_time=200.0)
    return net


def test_render_ring_correct(small_ring):
    text = render_ring(small_ring)
    assert "ring of 5 nodes" in text
    assert "oracle-correct" in text
    for addr in small_ring.live_addresses():
        assert addr in text


def test_render_ring_flags_corruption(small_ring):
    victim = small_ring.live_addresses()[0]
    wrong = [
        a
        for a in small_ring.live_addresses()
        if a not in (victim, small_ring.best_succ_of(victim))
    ][0]
    corrupt_best_succ(small_ring.node(victim), wrong)
    text = render_ring(small_ring)
    assert "WRONG successor" in text
    assert "disagreement" in text
    # Let the ring repair so other module tests see a clean fixture.
    small_ring.wait_stable(max_time=120.0)


def test_render_chain(make_node, sim):
    a = make_node("a:1")
    b = make_node("b:1")
    Tracer(a), Tracer(b)
    source = """
    materialize(cfg, 100, 10, keys(1,2)).
    r1 hop@Dst(X, C) :- start@N(Dst, X), cfg@N(C).
    r2 final@N(X, C) :- hop@N(X, C).
    """
    a.install_source(source)
    b.install_source(source)
    a.inject("cfg", ("a:1", "v1"))
    finals = b.collect("final")
    a.inject("start", ("a:1", "b:1", 9))
    sim.run_for(1.0)
    chain = trace_back({"a:1": a, "b:1": b}, "b:1", finals[0])
    text = render_chain(chain)
    assert "2 rule executions, 1 network hop" in text
    assert "r1 @ a:1" in text
    assert "r2 @ b:1" in text
    assert "precondition: cfg" in text
    assert "ms rule" in text


def test_render_empty_chain():
    assert "empty" in render_chain([])


def test_dashboard_renders_metrics_and_alarms():
    system = System(seed=1)
    node = system.add_node("n:1")
    monitor = Monitor(
        name="w", source="w alarm@N(X) :- bad@N(X).", alarm_events=["alarm"]
    )
    handle = monitor.install([node])
    dashboard = Dashboard(system, title="test-rig")
    dashboard.add_monitor(handle)

    node.inject("bad", ("n:1", 1))
    text = dashboard.render()
    assert "test-rig" in text
    assert "n:1" in text
    assert "alarm=1" in text
    assert "1 live / 1 total" in text


def test_dashboard_diff_highlights_new_alarms():
    system = System(seed=1)
    node = system.add_node("n:1")
    monitor = Monitor(
        name="w", source="w alarm@N(X) :- bad@N(X).", alarm_events=["alarm"]
    )
    dashboard = Dashboard(system)
    dashboard.add_monitor(monitor.install([node]))

    assert dashboard.diff_since_last() == []
    node.inject("bad", ("n:1", 1))
    node.inject("bad", ("n:1", 2))
    assert dashboard.diff_since_last() == ["w: +2 alarm"]
    assert dashboard.diff_since_last() == []  # nothing new


def lossy_relay_system(seed=2, loss_rate=0.9):
    system = System(seed=seed, loss_rate=loss_rate)
    a = system.add_node("a:1")
    system.add_node("b:1").install_source("r out@N(X) :- evt@N(X).")
    a.install_source("r evt@Dst(X) :- go@N(Dst, X).")
    return system, a


def test_dashboard_render_breaks_down_drops_by_reason():
    system, a = lossy_relay_system()
    for i in range(20):
        a.inject("go", ("a:1", "b:1", i))
    system.run_for(2.0)
    dropped = system.network.stats.messages_dropped
    assert dropped > 0
    text = Dashboard(system).render()
    assert f"dropped: {dropped} (loss={dropped})" in text


def test_dashboard_diff_surfaces_new_drop_reasons():
    from repro.faults import FaultInjector

    system, a = lossy_relay_system()
    dashboard = Dashboard(system)
    assert dashboard.diff_since_last() == []

    for i in range(20):
        a.inject("go", ("a:1", "b:1", i))
    system.run_for(2.0)
    loss = system.network.stats.drop_reasons["loss"]
    assert dashboard.diff_since_last() == [f"drops: new reason loss (+{loss})"]
    # More of a known reason is not news.
    a.inject("go", ("a:1", "b:1", 99))
    system.run_for(2.0)
    assert dashboard.diff_since_last() == []

    # A first-ever reason is.
    FaultInjector(system).partition("a:1", "b:1")
    a.inject("go", ("a:1", "b:1", 100))
    system.run_for(2.0)
    diff = dashboard.diff_since_last()
    assert any(d.startswith("drops: new reason partition") for d in diff)
    assert not any("new reason loss" in d for d in diff)


def test_dashboard_marks_stopped_nodes():
    system = System(seed=1)
    system.add_node("a:1")
    system.add_node("b:1")
    system.crash("b:1")
    text = Dashboard(system).render()
    assert "b:1                down" in text
    assert "1 live / 2 total" in text
