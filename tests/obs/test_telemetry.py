"""Spans, events, and the flight recorder."""

import pytest

from repro.errors import ReproError
from repro.obs.recorder import FlightRecorder
from repro.obs.telemetry import NULL_SPAN, Telemetry


class FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


def make_telemetry(enabled=True, **kwargs):
    clock = FakeClock()
    return Telemetry(clock, enabled=enabled, **kwargs), clock


# ----------------------------------------------------------------------
# Spans


def test_disabled_span_is_the_shared_noop():
    tel, _ = make_telemetry(enabled=False)
    span = tel.span("anything", x=1)
    assert span is NULL_SPAN
    with span as s:
        s.set(y=2)  # all no-ops
    assert tel.recorder.snapshot() == []
    tel.event("drop", reason="loss")
    assert tel.recorder.snapshot() == []


def test_span_records_times_and_attrs():
    tel, clock = make_telemetry()
    with tel.span("work", node="a") as span:
        clock.t = 1.5
        span.set(rows=3)
    (rec,) = tel.recorder.snapshot()
    assert rec["type"] == "span" and rec["name"] == "work"
    assert rec["t0"] == 0.0 and rec["t1"] == 1.5
    assert rec["attrs"] == {"node": "a", "rows": 3}
    assert rec["parent"] == 0


def test_nested_spans_carry_parent_child_causality():
    tel, clock = make_telemetry()
    with tel.span("outer") as outer:
        assert tel.current_span_id == outer.span_id
        with tel.span("inner") as inner:
            assert inner.parent_id == outer.span_id
            tel.event("tick")
        with tel.span("sibling") as sibling:
            assert sibling.parent_id == outer.span_id
    assert tel.current_span_id == 0
    records = tel.recorder.snapshot()
    by_name = {r["name"]: r for r in records if r["type"] == "span"}
    assert by_name["inner"]["parent"] == by_name["outer"]["id"]
    assert by_name["sibling"]["parent"] == by_name["outer"]["id"]
    # The event was attributed to the innermost open span.
    (event,) = [r for r in records if r["type"] == "event"]
    assert event["span"] == by_name["inner"]["id"]
    # Span ids are unique.
    ids = [r["id"] for r in records if r["type"] == "span"]
    assert len(set(ids)) == len(ids)


def test_span_clock_override():
    tel, clock = make_telemetry()
    micro = FakeClock()
    micro.t = 10.0
    with tel.span("rule", clock=micro):
        micro.t = 10.25
    (rec,) = tel.recorder.snapshot()
    assert rec["t0"] == 10.0 and rec["t1"] == 10.25
    assert clock.t == 0.0  # the telemetry clock was never consulted


def test_span_records_exceptions():
    tel, _ = make_telemetry()
    with pytest.raises(ValueError):
        with tel.span("risky"):
            raise ValueError("boom")
    (rec,) = tel.recorder.snapshot()
    assert rec["attrs"]["error"] == "ValueError"


def test_event_payload():
    tel, clock = make_telemetry()
    clock.t = 4.5
    tel.event("net.drop", reason="loss", link="a->b")
    (rec,) = tel.recorder.snapshot()
    assert rec == {
        "type": "event",
        "name": "net.drop",
        "t": 4.5,
        "span": 0,
        "attrs": {"reason": "loss", "link": "a->b"},
    }


# ----------------------------------------------------------------------
# Flight recorder


def test_recorder_ring_is_bounded_and_counts_drops():
    rec = FlightRecorder(capacity=4)
    for i in range(10):
        rec.record({"i": i})
    snapshot = rec.snapshot()
    assert [r["i"] for r in snapshot] == [6, 7, 8, 9]
    assert rec.recorded == 10
    assert rec.dropped == 6


def test_recorder_validates_configuration():
    with pytest.raises(ReproError):
        FlightRecorder(capacity=0)
    with pytest.raises(ReproError):
        FlightRecorder(capacity=-1)


def test_recorder_clear():
    rec = FlightRecorder(capacity=4)
    rec.record({"a": 1})
    rec.clear()
    assert rec.snapshot() == []
    assert rec.recorded == 0
