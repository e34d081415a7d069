"""End-to-end instrumentation: events and distributions from the live runtime."""

import json
from collections import Counter, defaultdict

import pytest

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


def build(seed=3, observability=True, tracing=False, **kwargs):
    system = System(seed=seed, observability=observability, **kwargs)
    a = system.add_node("a:1", tracing=tracing)
    system.add_node("b:2", tracing=tracing)
    system.install_source(WORKLOAD, name="w")
    a.inject("nextHop", ("a:1", "b:2"))
    return system, a


def events_named(telemetry, name):
    return [
        r
        for r in telemetry.recorder.snapshot()
        if r["type"] == "event" and r["name"] == name
    ]


def meter_firings(system):
    """Wrap every strand's generated function to count, per ``(node,
    rule)``, its firings, the work charged while they run (the strand's
    and the tracer's), and the rows their joins examine (the
    ``join_probe`` / ``join_indexed`` charges)."""
    fired, charged, examined = Counter(), defaultdict(float), defaultdict(list)
    for address, node in system.nodes.items():
        work = node.work
        for strand in node.strands:
            key = (address, strand.rule_id)

            def fire(
                trigger, ctx, hooks, charge, inner=strand._fire, key=key, work=work
            ):
                fired[key] += 1
                rows = []

                def counted(op, amount=1):
                    if op in ("join_probe", "join_indexed"):
                        rows.append(amount)
                    charge(op, amount)

                busy = work.busy_seconds
                actions = inner(trigger, ctx, hooks, counted)
                charged[key] += work.busy_seconds - busy
                if rows:
                    examined[key].append(sum(rows))
                return actions

            strand._fire = fire
    return fired, charged, examined


def rule_spans(system, directory):
    """The ``rule_exec`` spans of the system's exported Chrome trace."""
    with open(system.export_telemetry(str(directory))["trace"]) as handle:
        events = json.load(handle)["traceEvents"]
    return [e for e in events if e["ph"] == "X" and e["name"] == "rule_exec"]


def test_rule_execution_spans_and_histograms(tmp_path):
    system, a = build(tracing=True)
    fired, charged, examined = meter_firings(system)
    for i in range(5):
        a.inject("msg", ("a:1", f"m{i}"))
    system.run_for(5.0)

    reg = system.telemetry.metrics
    durations = reg.snapshot("rule_duration_seconds")
    # One observation per firing, exactly, and the charged work summed.
    assert fired[("a:1", "f1")] == 5
    assert {key: data.count for key, data in durations.items()} == dict(fired)
    for key, data in durations.items():
        assert data.sum == pytest.approx(charged[key], rel=1e-9, abs=0)
        assert data.min > 0
    # The join against nextHop examined one row per firing of f1.
    join = reg.snapshot("join_rows_examined")
    assert examined[("a:1", "f1")] == [1] * 5
    assert {key: data.count for key, data in join.items()} == {
        key: len(rows) for key, rows in examined.items()
    }
    for key, data in join.items():
        assert data.sum == sum(examined[key])
    # The registry reads the strands' own counters for the same rules.
    assert reg.value("strand_inputs_total", ("a:1", "f1")) == 5
    assert reg.value("strand_outputs_total", ("a:1", "f1")) == 5
    # Traced, every execution the tracer kept is a span in the trace.
    spans = rule_spans(system, tmp_path)
    fired_spans = {(s["args"]["node"], s["args"]["rule"]) for s in spans}
    assert ("a:1", "f1") in fired_spans and ("b:2", "f2") in fired_spans
    assert all(s["dur"] >= 0 for s in spans)
    assert len(spans) == sum(
        1
        for node in system.nodes.values()
        for row in node.query("ruleExec")
        if row.values[6]
    )


def test_uninstalled_strands_drop_out_of_every_per_rule_series():
    system, a = build()
    watch = a.install_source("u1 echo@N(M) :- msg@N(M), nextHop@N(D).")
    a.inject("msg", ("a:1", "m0"))
    system.run_for(2.0)
    reg = system.telemetry.metrics
    per_rule = ("strand_inputs_total", "rule_duration_seconds", "join_rows_examined")
    assert all(("a:1", "u1") in reg.snapshot(name) for name in per_rule)
    a.uninstall(watch)
    assert not any(("a:1", "u1") in reg.snapshot(name) for name in per_rule)
    assert ("a:1", "f1") in reg.snapshot("rule_duration_seconds")


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


def test_tracer_composes_with_telemetry_hooks(tmp_path):
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
    (duration,) = system.telemetry.metrics.snapshot(
        "rule_duration_seconds"
    ).values()
    assert duration.count == 1
    # The firing's span in the trace is the ruleExec row's, times and all.
    (span,) = rule_spans(system, tmp_path)
    (row,) = node.query("ruleExec")
    _, rule, _, _, in_t, out_t, is_event = row.values
    assert is_event and span["args"]["rule"] == rule == "r1"
    assert span["ts"] == round(in_t * 1e6, 3)
    assert span["dur"] == round((out_t - in_t) * 1e6, 3)


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
