"""Exporters: schema validity and byte-stability across same-seed runs."""

import json
import math

import pytest

from repro.core.system import System
from repro.obs.export import jsonl_lines, prometheus_text
from repro.obs.telemetry import Telemetry

WORKLOAD = """
materialize(peer, 60, 50, keys(1,2)).
p1 peer@N(M) :- hello@N(M).
p2 echo@M(N) :- hello@N(M).
p3 tick@N(E) :- periodic@N(E, 0.5).
"""


def run_system(seed=11, loss_rate=0.0, observability=True, tracing=True):
    system = System(seed=seed, loss_rate=loss_rate, observability=observability)
    a = system.add_node("a:1", tracing=tracing)
    system.add_node("b:2", tracing=tracing)
    system.install_source(WORKLOAD, name="w")
    a.inject("hello", ("a:1", "b:2"))
    system.run_for(10.0)
    return system


@pytest.fixture(scope="module")
def system():
    return run_system()


def export_trace(system, directory):
    with open(system.export_telemetry(str(directory))["trace"]) as handle:
        return json.load(handle)


def test_chrome_trace_is_schema_valid(system, tmp_path):
    parsed = export_trace(system, tmp_path)
    assert parsed["displayTimeUnit"] == "ms"
    assert parsed["otherData"] == {"seed": 11, "now": system.now, "nodes": 2}
    events = parsed["traceEvents"]
    assert events, "no trace events exported"
    phases = {e["ph"] for e in events}
    assert "X" in phases and "M" in phases
    for event in events:
        assert event["ph"] in ("X", "i", "M")
        assert isinstance(event["pid"], int)
        assert isinstance(event["tid"], int)
        if event["ph"] == "X":
            assert event["ts"] >= 0 and event["dur"] >= 0
        if event["ph"] == "i":
            assert event["s"] == "t"
    # Every node appears as a named thread row.
    thread_names = {
        e["args"]["name"]
        for e in events
        if e["ph"] == "M" and e["name"] == "thread_name"
    }
    assert {"a:1", "b:2", "fabric"} <= thread_names
    # One rule_exec span per retained ruleExec event row, with that
    # row's times, on its node's tid.
    tid_of = {
        e["args"]["name"]: e["tid"]
        for e in events
        if e["ph"] == "M" and e["name"] == "thread_name"
    }
    spans = sorted(
        (e["args"]["node"], e["args"]["rule"], e["ts"], e["dur"], e["tid"])
        for e in events
        if e["ph"] == "X" and e["name"] == "rule_exec"
    )
    rows = sorted(
        (node, rule, round(in_t * 1e6, 3), round((out_t - in_t) * 1e6, 3), tid_of[node])
        for address in ("a:1", "b:2")
        for node, rule, _, _, in_t, out_t, is_event in (
            row.values for row in system.node(address).query("ruleExec")
        )
        if is_event
    )
    assert spans == rows
    assert {rule for _, rule, _, _, _ in spans} == {"p1", "p2", "p3"}
    assert len(spans) == sum(1 for e in events if e["ph"] == "X")


def test_untraced_chrome_trace_has_no_rule_spans(tmp_path):
    events = export_trace(run_system(tracing=False), tmp_path)["traceEvents"]
    assert events and not [e for e in events if e["ph"] == "X"]


def test_jsonl_lines_parse_and_cover_everything(system):
    lines = jsonl_lines(system.telemetry, meta={"seed": 11})
    parsed = [json.loads(line) for line in lines]
    kinds = [p["type"] for p in parsed]
    assert kinds[0] == "meta"
    assert set(kinds) == {"meta", "event", "metric", "hist"} - (
        set() if system.telemetry.recorder.recorded else {"event"}
    )
    # Every recorder event, and nothing per firing: no span lines.
    events = [p for p in parsed if p["type"] == "event"]
    assert events == system.telemetry.recorder.snapshot()
    hist = next(p for p in parsed if p["type"] == "hist")
    assert {"name", "labels", "count", "sum", "buckets"} <= set(hist)
    metric = next(p for p in parsed if p["type"] == "metric")
    assert {"name", "kind", "labels", "value"} <= set(metric)
    # The rule_duration_seconds lines of a node count every firing there.
    durations = [
        p for p in parsed
        if p["type"] == "hist" and p["name"] == "rule_duration_seconds"
    ]
    assert {p["labels"]["rule"] for p in durations} == {"p1", "p2", "p3"}
    for address, node in system.nodes.items():
        assert node.rule_executions == sum(
            p["count"] for p in durations if p["labels"]["node"] == address
        )


def test_prometheus_text_format(system):
    text = prometheus_text(system.telemetry)
    lines = text.splitlines()
    assert any(l.startswith("# TYPE net_counters_total counter") for l in lines)
    assert any(l.startswith("# TYPE node_live_tuples gauge") for l in lines)
    assert any(
        l.startswith("# TYPE rule_duration_seconds histogram") for l in lines
    )
    assert any("rule_duration_seconds_bucket{" in l and 'le="' in l for l in lines)
    assert any(l.startswith("rule_duration_seconds_count") for l in lines)
    # Every non-comment line is "name{labels} value".
    for line in lines:
        if line.startswith("#") or not line:
            continue
        name_part, value = line.rsplit(" ", 1)
        float(value)  # parses
        assert name_part


def _observed(name, labels, *values):
    def fill(reg):
        histogram = reg.histogram(name, labelnames=tuple(labels))
        for value in values:
            histogram.observe(value, **labels)
    return fill


def _set(kind, value):
    def fill(reg):
        if kind == "gauge":
            reg.gauge("g").set(value)
        else:
            reg.counter("c").inc(value)
    return fill


@pytest.mark.parametrize(
    "fill, lines",
    [
        # Every histogram series ends in an le="+Inf" bucket equal to
        # _count, labelled or not.
        (
            _observed("h", {}, 0.5, 3.0),
            ['h_bucket{le="0.5625"} 1', 'h_bucket{le="3.25"} 2',
             'h_bucket{le="+Inf"} 2', "h_count 2", "h_sum 3.5"],
        ),
        (
            _observed("lat", {"link": "a->b"}, 0.25),
            ['lat_bucket{link="a->b",le="0.28125"} 1',
             'lat_bucket{link="a->b",le="+Inf"} 1', 'lat_count{link="a->b"} 1'],
        ),
        # Non-finite samples in the format's spelling.
        (_set("gauge", math.inf), ["g +Inf"]),
        (_set("gauge", -math.inf), ["g -Inf"]),
        (_set("gauge", math.nan), ["g NaN"]),
        (_set("counter", math.inf), ["c +Inf"]),
    ],
    ids=["histogram", "labelled", "inf", "minus-inf", "nan", "counter-inf"],
)
def test_prometheus_exposition_is_valid(fill, lines):
    telemetry = Telemetry(lambda: 0.0)
    fill(telemetry.metrics)
    text = prometheus_text(telemetry).splitlines()
    start = text.index(lines[0])
    assert text[start : start + len(lines)] == lines


def test_exports_are_byte_stable_across_same_seed_runs(tmp_path):
    def export_once(directory):
        system = run_system(seed=23, loss_rate=0.1)
        return system.export_telemetry(str(directory), prefix="stab")

    first = export_once(tmp_path / "one")
    second = export_once(tmp_path / "two")
    for key in ("trace", "jsonl", "prom"):
        with open(first[key], "rb") as f, open(second[key], "rb") as g:
            assert f.read() == g.read(), f"{key} artifact not byte-stable"


def test_different_seeds_differ(tmp_path):
    a = run_system(seed=23, loss_rate=0.1).export_telemetry(
        str(tmp_path / "a"), prefix="x"
    )
    b = run_system(seed=24, loss_rate=0.1).export_telemetry(
        str(tmp_path / "b"), prefix="x"
    )
    with open(a["jsonl"], "rb") as f, open(b["jsonl"], "rb") as g:
        assert f.read() != g.read()
