"""Configurable ring capacities and the rotation signal.

Satellite of the forensic store: operators size the introspection
rings per deployment, and the first time any ring
rotates the system announces it — once — so dashboards can say
"in-memory forensics is now lossy; slice from the store".
"""

from __future__ import annotations

import pytest

from repro.core.system import System
from repro.store import StoreConfig


def rotated_events(system):
    return [
        r
        for r in system.telemetry.recorder.snapshot()
        if r["type"] == "event" and r["name"] == "store.ring_rotated"
    ]


def chain(system):
    a = system.add_node("a:1", tracing=True, logging=True)
    b = system.add_node("b:1", tracing=True, logging=True)
    a.install_source("r1 hop@Dst(X) :- start@N(Dst, X).")
    b.install_source("r2 final@N(X) :- hop@N(X).")
    return a, b


def test_system_defaults_size_every_ring():
    system = System(
        seed=0, trace_entries=11, log_capacity=7, tuple_entries=13
    )
    a, _ = chain(system)
    assert a.store.get("ruleExec").max_size == 11
    assert a.store.get("tupleLog").max_size == 7
    assert a.store.get("tableLog").max_size == 7
    assert a.store.get("tupleTable").max_size == 13


def test_overrides_survive_crash_restart():
    """Ring sizes that override the class defaults hold for a restarted
    node too."""
    system = System(seed=1, trace_entries=9, log_capacity=5)
    system.add_node("a:1", tracing=True, logging=True)
    system.run_for(1.0)
    system.crash("a:1")
    system.run_for(1.0)
    node = system.restart_node("a:1")
    assert node.store.get("ruleExec").max_size == 9
    assert node.store.get("tupleLog").max_size == 5


def test_rotation_counts_and_one_time_event(tmp_path):
    system = System(
        seed=2,
        observability=True,
        store=StoreConfig(directory=str(tmp_path / "store")),
        trace_entries=8,
        tuple_entries=32,
        log_capacity=16,
    )
    a, b = chain(system)
    for i in range(40):
        a.inject("start", ("a:1", "b:1", i))
    system.run_for(5.0)

    # Cumulative counter: way more evictions than the announcement.
    assert system.ring_rotations[("a:1", "ruleExec")] >= 30
    assert system.ring_rotations[("b:1", "ruleExec")] >= 30
    # ... but exactly one recorder event per (node, ring).
    announced = rotated_events(system)
    keys = [(r["attrs"]["node"], r["attrs"]["ring"]) for r in announced]
    assert len(keys) == len(set(keys))
    assert set(keys) >= {("a:1", "ruleExec"), ("b:1", "ruleExec")}
    # The store mirrors the total for its manifest.
    assert system.store.ring_rotations == dict(system.ring_rotations)


def test_rotation_counter_works_without_a_store():
    system = System(seed=3, observability=True, trace_entries=8)
    a, _ = chain(system)
    for i in range(30):
        a.inject("start", ("a:1", "b:1", i))
    system.run_for(5.0)
    assert system.ring_rotations[("a:1", "ruleExec")] > 0
    assert rotated_events(system)


def test_no_rotation_no_signal():
    system = System(seed=4, observability=True)  # default (large) rings
    a, _ = chain(system)
    for i in range(10):
        a.inject("start", ("a:1", "b:1", i))
    system.run_for(5.0)
    assert system.ring_rotations == {}
    assert rotated_events(system) == []


def test_store_metrics_exported(tmp_path):
    system = System(
        seed=5,
        store=StoreConfig(
            directory=str(tmp_path / "store"), segment_events=32
        ),
        trace_entries=8,
    )
    a, _ = chain(system)
    for i in range(30):
        a.inject("start", ("a:1", "b:1", i))
    system.run_for(5.0)
    reg = system.telemetry.metrics
    counters = reg.snapshot("store_counters_total")
    assert counters[("events_appended",)] == system.store.events_appended
    assert counters[("segments_written",)] >= 1
    assert reg.snapshot("store_bytes_written_total")[()] > 0
    rotations = reg.snapshot("store_ring_rotations_total")
    assert rotations[("a:1", "ruleExec")] == system.ring_rotations[
        ("a:1", "ruleExec")
    ]
    buffered = reg.snapshot("store_buffered_events")[()]
    assert buffered == system.store.buffered


def test_store_metrics_absent_without_store():
    system = System(seed=6)
    chain(system)
    reg = system.telemetry.metrics
    assert reg.snapshot("store_counters_total") == {}
    assert reg.snapshot("store_bytes_written_total") == {}


def test_bad_ring_capacities_rejected():
    from repro.errors import ReproError

    with pytest.raises(ReproError):
        System(seed=0, trace_entries=0).add_node("a:1", tracing=True)
    with pytest.raises(ReproError):
        System(seed=0, log_capacity=-1).add_node("a:1", logging=True)


def test_dashboard_renders_forensic_panel(tmp_path):
    from repro.report.dashboard import Dashboard

    system = System(
        seed=7,
        store=StoreConfig(
            directory=str(tmp_path / "store"), segment_events=32
        ),
        trace_entries=8,
    )
    a, _ = chain(system)
    for i in range(30):
        a.inject("start", ("a:1", "b:1", i))
    system.run_for(5.0)
    text = Dashboard(system, title="forensics").render()
    assert "forensic store (durable events):" in text
    assert f"segments={system.store.segments_written}" in text
    assert "slice from the store" in text  # rotation warning line

    plain = System(seed=7)
    plain.add_node("a:1", tracing=True)
    assert "forensic store" not in Dashboard(plain, title="x").render()
