"""Events and the flight recorder."""

import pytest

from repro.errors import ReproError
from repro.obs.recorder import FlightRecorder
from repro.obs.telemetry import Telemetry


class FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


def make_telemetry(enabled=True, **kwargs):
    clock = FakeClock()
    return Telemetry(clock, enabled=enabled, **kwargs), clock


# ----------------------------------------------------------------------
# Events


def test_disabled_telemetry_records_nothing():
    tel, _ = make_telemetry(enabled=False)
    tel.event("drop", reason="loss")
    assert tel.recorder.snapshot() == []
    assert tel.recorder.recorded == 0


def test_event_payload():
    tel, clock = make_telemetry()
    clock.t = 4.5
    tel.event("net.drop", reason="loss", link="a->b")
    (rec,) = tel.recorder.snapshot()
    assert rec == {
        "type": "event",
        "name": "net.drop",
        "t": 4.5,
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
