"""Overload protection threaded through a live P2Node."""

from collections import deque

import pytest

from repro.core.system import System
from repro.errors import RuntimeStateError
from repro.overload.controller import (
    SHED_STOPPED,
    OverloadConfig,
)
from repro.overload.policy import CLASS_DATA, CLASS_MONITOR
from repro.overlog.program import Program

PROGRAM = "r out@Dst(X) :- evt@N(Dst, X)."


def make_pair(make_node, **config):
    """Sender a -> receiver b, overload protection on b only."""
    a = make_node("a:1")
    b = make_node("b:1", overload=OverloadConfig(**config))
    a.install_source(PROGRAM)
    b.install_source(PROGRAM)
    return a, b


def flood(a, count):
    for i in range(count):
        a.inject("evt", ("a:1", "b:1", i))


def test_overload_off_by_default(make_node):
    assert make_node("plain:1").overload is None


def test_zero_service_time_processes_inline(sim, make_node):
    a, b = make_pair(make_node, service_time=0.0)
    got = b.collect("out")
    flood(a, 5)
    sim.run_for(1.0)
    assert len(got) == 5
    counts = b.overload.counts[CLASS_DATA]
    assert counts.offered == 5 and counts.admitted == 5


@pytest.mark.parametrize(
    "transport, expected",
    [
        # UDP: the message was never admitted, so the mailbox decides —
        # exactly once.
        ("udp", {"admit_mailbox": 1}),
        # Reliable: the gate decided before the ack; receive only
        # counts the arrival.  Its frames are per-message events.
        ("reliable", {"admit_remote": 1, "count_arrival": 1}),
    ],
)
def test_admission_is_decided_once_per_message(monkeypatch, transport, expected):
    system = System(
        seed=1,
        transport=transport,
        overload=OverloadConfig(service_time=0.0),
    )
    a = system.add_node("a:1")
    b = system.add_node("b:1")
    system.install_source(PROGRAM)
    calls = {}
    for name in ("admit_mailbox", "admit_remote", "count_arrival"):

        def spy(relation, _name=name, _orig=getattr(b.overload, name)):
            calls[_name] = calls.get(_name, 0) + 1
            return _orig(relation)

        monkeypatch.setattr(b.overload, name, spy)
    sent = []
    send = system.network.send

    def record_send(src, dst, body, size=0, src_tid=None, mid=None):
        sent.append(body)
        send(src, dst, body, size, src_tid, mid)

    monkeypatch.setattr(system.network, "send", record_send)
    got = b.collect("out")
    flood(a, 1)
    system.run_for(1.0)
    assert len(got) == 1
    assert calls == expected
    # Both transports carry the receiver-ready tuple itself.
    assert sent == got
    counts = b.overload.counts[CLASS_DATA]
    assert counts.offered == 1 and counts.admitted == 1


def test_mailbox_overflow_sheds_data_at_hard_full(sim, make_node):
    a, b = make_pair(make_node, mailbox_capacity=4, service_time=0.5)
    got = b.collect("out")
    flood(a, 20)  # all arrive within one latency tick, drain is slow
    sim.run_for(0.2)
    counts = b.overload.counts[CLASS_DATA]
    assert counts.shed > 0
    assert counts.offered == counts.admitted + counts.shed
    assert b.overload.invariant_ok()  # sheds only while shed_active
    sim.run_for(30.0)  # drain the survivors
    assert len(got) == counts.admitted


def test_stop_abandons_mailbox_as_node_stopped(sim, make_node):
    a, b = make_pair(make_node, mailbox_capacity=64, service_time=1.0)
    flood(a, 8)
    sim.run_for(0.05)  # delivered into the mailbox, none drained yet
    assert len(b.overload.mailbox) > 0
    b.stop()
    assert len(b.overload.mailbox) == 0
    counts = b.overload.counts[CLASS_DATA]
    assert counts.shed_reasons.get(SHED_STOPPED, 0) > 0
    # Crash abandonment keeps the ledger balanced and the invariant
    # clean — it is not an overload decision.
    assert counts.offered == counts.admitted + counts.shed
    assert b.overload.invariant_ok()


def test_monitor_program_relations_classified_monitor(make_node):
    node = make_node(
        "m:1", overload=OverloadConfig()
    )
    node.install(
        Program.compile(
            "r alarm@N(X) :- probe@N(X).", name="mon", role="monitor"
        )
    )
    assert node.overload.classify("alarm") == CLASS_MONITOR
    assert node.overload.classify("lookup") == CLASS_DATA


def test_data_claim_outranks_monitor_claim(make_node):
    node = make_node("m:1", overload=OverloadConfig())
    node.install(
        Program.compile(
            "r shared@N(X) :- probe@N(X).", name="mon", role="monitor"
        )
    )
    node.install_source("r shared@N(X) :- evt@N(X).")
    assert node.overload.classify("shared") == CLASS_DATA


# ----------------------------------------------------------------------
# Watch rings


def test_watch_ring_evicts_oldest(make_node):
    node = make_node("w:1")
    node.install_source("r out@N(X) :- evt@N(X).")
    node.watch("out", capacity=2)
    for i in range(5):
        node.inject("evt", ("w:1", i))
    watched = node.watched("out")
    assert [t.values[1] for _, t in watched] == [3, 4]
    assert node.watch_evicted["out"] == 3


def test_rewatch_with_explicit_capacity_resizes(make_node):
    node = make_node("w:1")
    node.install_source("r out@N(X) :- evt@N(X).")
    node.watch("out", capacity=10)
    for i in range(6):
        node.inject("evt", ("w:1", i))
    assert len(node.watched("out")) == 6
    node.watch("out", capacity=2)  # shrink: trims and counts evictions
    assert [t.values[1] for _, t in node.watched("out")] == [4, 5]
    assert node.watch_evicted["out"] == 4


def test_rewatch_without_capacity_keeps_ring(make_node):
    node = make_node("w:1")
    node.install_source("r out@N(X) :- evt@N(X).")
    first = node.watch("out", capacity=3)
    node.inject("evt", ("w:1", 1))
    again = node.watch("out")  # e.g. a second program's watch(out).
    assert again is first and len(again) == 1


def test_watch_negative_capacity_rejected(make_node):
    with pytest.raises(RuntimeStateError):
        make_node("w:1").watch("out", capacity=-1)


def test_watch_default_capacity_comes_from_overload_config(make_node):
    node = make_node("w:1", overload=OverloadConfig(watch_capacity=2))
    node.install_source("r out@N(X) :- evt@N(X).")
    node.watch("out")
    for i in range(4):
        node.inject("evt", ("w:1", i))
    assert len(node.watched("out")) == 2
    assert node.watch_evicted["out"] == 2


# ----------------------------------------------------------------------
# Mailbox drain, against independent counts


def served_at(sim, node):
    """Wrap ``node._apply``: the virtual time each message is served."""
    times = []
    apply = node._apply

    def record(message):
        times.append(sim.now)
        apply(message)

    node._apply = record
    return times


def test_each_drain_serves_the_credit_its_elapsed_time_pays_for(sim, make_node):
    # One message per 4 ms on a 10 ms grid: drains land every tick and
    # pay 2.5 messages each, the fraction banked for the next drain.
    delay = 0.004
    a, b = make_pair(make_node, mailbox_capacity=1000, service_time=delay)
    times = served_at(sim, b)
    flood(a, 40)
    sim.run_for(0.011)  # everything has arrived and armed the drain
    armed = b._drain_armed
    assert len(b.overload.mailbox) == 40 and not times
    sim.run_for(1.0)
    assert len(times) == 40
    drains = sorted(set(times))
    served = 0
    for when in drains:
        served += times.count(when)
        # Cumulative service is what the whole elapsed time pays for,
        # however it was split into drains.
        paid = int((when - armed) / delay + 1e-9)
        assert served == min(40, paid), f"drain at {when}"


def test_a_drained_message_reads_its_own_turns_clock(sim, make_node):
    b = make_node("b:1", overload=OverloadConfig(
        mailbox_capacity=1000, service_time=0.004
    ))
    a = make_node("a:1")
    a.install_source(PROGRAM)
    b.install_source("s stamp@N(X, T) :- out@N(X), T := f_now().")
    got = b.collect("stamp")
    flood(a, 12)
    sim.run_for(1.0)
    assert len(got) == 12
    stamps = {}
    for tup in got:
        stamps.setdefault(round(tup.values[2], 2), []).append(tup.values[2])
    # Several messages per drain, and each starts its turn from the
    # drain's instant: every one of them reads the same clock.
    assert max(len(same) for same in stamps.values()) > 1
    for tick, same in stamps.items():
        assert same == [same[0]] * len(same), f"drain at {tick}"
        assert tick <= same[0] < tick + 0.004


def test_peak_strand_depth_is_the_longest_queue_the_pump_saw(make_node):
    node = make_node("p:1", overload=OverloadConfig())
    node.install_source(
        "\n".join(f"r{i} out{i}@N(X) :- evt@N(X)." for i in range(5))
        + "\nq chain@N(X) :- out0@N(X)."
    )
    seen = []

    class Queue(deque):
        def popleft(self):
            item = super().popleft()
            seen.append(len(self))
            return item

    node._queue = Queue(node._queue)
    for i in range(3):
        node.inject("evt", ("p:1", i))
    assert seen and max(seen) > 1
    assert node.overload.strand_state.depth_peak == max(seen)
