"""End-to-end instrumentation: spans and events from the live runtime."""

from repro.core.system import System
from repro.faults.injector import FaultInjector
from repro.faults.schedule import FaultSchedule
from repro.monitors.base import Monitor
from repro.net.network import ReliableConfig

WORKLOAD = """
materialize(nextHop, 60, 50, keys(1)).
f1 fwd@D(M) :- msg@N(M), nextHop@N(D).
f2 seen@N(M) :- fwd@N(M).
"""


def build(seed=3, observability=True, **kwargs):
    system = System(seed=seed, observability=observability, **kwargs)
    a = system.add_node("a:1")
    system.add_node("b:2")
    system.install_source(WORKLOAD, name="w")
    a.inject("nextHop", ("a:1", "b:2"))
    return system, a


def events_named(telemetry, name):
    return [
        r
        for r in telemetry.recorder.snapshot()
        if r["type"] == "event" and r["name"] == name
    ]


def spans_named(telemetry, name):
    return [
        r
        for r in telemetry.recorder.snapshot()
        if r["type"] == "span" and r["name"] == name
    ]


def test_rule_execution_spans_and_histograms():
    system, a = build()
    for i in range(5):
        a.inject("msg", ("a:1", f"m{i}"))
    system.run_for(5.0)

    spans = spans_named(system.telemetry, "rule_exec")
    assert spans, "no rule_exec spans recorded"
    fired = {(s["attrs"]["node"], s["attrs"]["rule"]) for s in spans}
    assert ("a:1", "f1") in fired and ("b:2", "f2") in fired
    for span in spans:
        assert span["t1"] >= span["t0"]

    reg = system.telemetry.metrics
    durations = reg.snapshot("rule_duration_seconds")
    assert ("a:1", "f1") in durations
    assert durations[("a:1", "f1")].count == 5
    # The join against nextHop examined rows, charged per firing.
    join = reg.snapshot("join_rows_examined")
    assert any(key[1] == "f1" and data.count > 0 for key, data in join.items())
    # The registry reads the strands' own counters for the same rules.
    assert reg.value("strand_inputs_total", ("a:1", "f1")) == 5
    assert reg.value("strand_outputs_total", ("a:1", "f1")) == 5


def test_drop_events_carry_reasons():
    system, a = build(loss_rate=0.9)
    for i in range(4):
        a.inject("msg", ("a:1", f"m{i}"))
    system.run_for(5.0)
    drops = events_named(system.telemetry, "net.drop")
    assert drops and all(d["attrs"]["reason"] == "loss" for d in drops)
    assert system.telemetry.metrics.value("net_dropped_total", ("loss",)) == len(
        drops
    )


def test_reliable_transport_emits_retransmit_events_and_backoff():
    system, a = build(
        transport="reliable",
        loss_rate=0.5,
        reliable=ReliableConfig(rto=0.1, max_retries=8),
    )
    for i in range(10):
        a.inject("msg", ("a:1", f"m{i}"))
    system.run_for(30.0)
    retransmits = events_named(system.telemetry, "net.retransmit")
    assert retransmits
    for event in retransmits:
        assert event["attrs"]["attempt"] >= 1
    # Backoff is observed per transmission attempt (first sends too),
    # so its count dominates the retransmit event count.
    backoff = system.telemetry.metrics.snapshot(
        "net_retransmit_backoff_seconds"
    )
    attempts = sum(d.count for d in backoff.values())
    assert attempts >= len(retransmits) > 0
    assert ("a:1->b:2",) in backoff


def test_fault_and_phase_events():
    system, a = build()
    injector = FaultInjector(system)
    schedule = (
        FaultSchedule()
        .at(1.0, "partition", "a:1", "b:2")
        .at(2.0, "heal", "a:1", "b:2")
    )
    schedule.apply(injector, offset=0.0)
    system.run_for(5.0)

    phases = [e["attrs"]["phase"] for e in events_named(system.telemetry, "phase")]
    assert phases == [
        "fault_schedule_armed",
        "fault_window_begin",
        "fault_window_end",
    ]
    faults = events_named(system.telemetry, "fault")
    assert [f["attrs"]["kind"] for f in faults] == ["partition", "heal"]
    assert faults[0]["attrs"]["args"] == ["a:1", "b:2"]


def test_monitor_alarms_become_events():
    system, a = build()
    monitor = Monitor(
        "seen-watch",
        "m1 alarm@N(M) :- seen@N(M).",
        alarm_events=["alarm"],
    )
    handle = monitor.install(system.nodes.values())
    a.inject("msg", ("a:1", "m0"))
    system.run_for(5.0)
    assert handle.count("alarm") > 0
    alarms = events_named(system.telemetry, "monitor.alarm")
    assert len(alarms) == handle.count("alarm")
    assert alarms[0]["attrs"] == {
        "monitor": "seen-watch",
        "event": "alarm",
        "node": "b:2",
    }


def test_monitor_sink_is_plain_append_without_observability():
    system, a = build(observability=False)
    monitor = Monitor(
        "seen-watch", "m1 alarm@N(M) :- seen@N(M).", alarm_events=["alarm"]
    )
    handle = monitor.install(system.nodes.values())
    a.inject("msg", ("a:1", "m0"))
    system.run_for(5.0)
    assert handle.count("alarm") > 0
    assert system.telemetry.recorder.snapshot() == []


def test_tracer_composes_with_telemetry_hooks():
    system = System(seed=5, observability=True)
    node = system.add_node("a:1", tracing=True)
    # Telemetry rides no strand hook: a traced node has the tracer
    # alone, a telemetry-only node nothing.
    assert node.hooks is system.tracers["a:1"]
    assert system.add_node("b:2").hooks is None
    node.install_source("r1 out@N(X) :- evt@N(X).")
    node.inject("evt", ("a:1", 1))
    system.run_for(1.0)
    # The tracer's ruleExec table and the telemetry counters agree.
    assert len(node.query("ruleExec")) == 1
    assert system.telemetry.metrics.value(
        "strand_inputs_total", ("a:1", "r1")
    ) == 1
    assert spans_named(system.telemetry, "rule_exec")


def test_disabled_observability_leaves_hot_paths_untouched():
    system, a = build(observability=False)
    node = system.nodes["a:1"]
    assert node.obs is None and node.hooks is None
    assert system.network.obs is None
    a.inject("msg", ("a:1", "m0"))
    system.run_for(2.0)
    assert system.telemetry.recorder.snapshot() == []
    # The registry still answers reads (lazy callbacks over live state).
    assert system.telemetry.metrics.value(
        "net_counters_total", ("messages_sent",)
    ) > 0
