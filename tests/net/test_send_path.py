"""One send path: what a node ships is the tuple the wire would deliver.

Every loop (continuous, tick kernel) and both transports carry the same
body; these pin the two properties the bytes used to guarantee — an
unmarshalable value fails at send time, and the receiver's tuple is
what decoding the real wire bytes gives — plus exact byte accounting
over reliable frames that the fabric duplicates and reorders.
"""

from __future__ import annotations

import pytest

from repro.core.system import System
from repro.errors import NetworkError
from repro.net.marshal import encode_delete, encode_message
from repro.overlog.types import NodeID
from repro.runtime.tuples import Tuple
from repro.sim.batch import ExecutionConfig

LOOPS = {
    "continuous": {},
    "tick": {"execution": ExecutionConfig()},
    "reliable": {"transport": "reliable"},
}

SOURCE = """
materialize(t, infinity, infinity, keys(1,2)).
r1 m@Dst(X) :- evt@N(Dst, X).
d1 delete t@Dst(X) :- clear@N(Dst, X).
"""


class Reading(float):
    """A float subclass with its own ``repr``; json writes the float."""

    def __repr__(self) -> str:
        return f"Reading({float.__repr__(self)})"


def pair(loop, tracing=False, reorder_rate=0.0, **options):
    system = System(seed=3, **LOOPS[loop], **options)
    system.network.set_reorder_rate(reorder_rate)
    a = system.add_node("a:1", tracing=tracing)
    b = system.add_node("b:1", tracing=tracing)
    a.install_source(SOURCE)
    b.install_source(SOURCE)
    return system, a, b


@pytest.mark.parametrize("loop", LOOPS)
@pytest.mark.parametrize("relation", ("evt", "clear"))
@pytest.mark.parametrize(
    "value",
    (object(), 1j, frozenset({1}), (1, object())),
    ids=("object", "complex", "frozenset", "nested"),
)
def test_unmarshalable_value_fails_at_send(loop, relation, value):
    system, a, _ = pair(loop)
    with pytest.raises(NetworkError, match="cannot be marshaled"):
        a.inject(relation, ("a:1", "b:1", value))
    assert system.network.stats.messages_sent == 0


@pytest.mark.parametrize("loop", LOOPS)
def test_receiver_gets_what_the_wire_decodes(loop):
    """``np.float64`` (or any float subclass) arrives as a float on every
    loop and costs what the encoder writes for it."""
    numpy = pytest.importorskip("numpy")
    system, a, b = pair(loop)
    got = b.collect("m")
    values = [
        numpy.float64(1.5), Reading(2.5), True, NodeID(7, 8), ("x", Reading(0.5))
    ]
    for value in values:
        a.inject("evt", ("a:1", "b:1", value))
    system.run_for(1.0)
    assert [type(t.values[1]) for t in got] == [
        float, float, bool, NodeID, tuple
    ]
    assert type(got[-1].values[1][1]) is float
    assert [t.values[1] for t in got] == [
        1.5, 2.5, True, NodeID(7, 8), ("x", 0.5)
    ]
    # 83 B for the first message, not the 95 of spelling it np.float64(1.5).
    assert system.network.stats.bytes_sent == sum(
        len(encode_message(t, "a:1", None, mid=mid))
        for mid, t in enumerate(got, start=1)
    )


def test_reliable_bytes_sent_equal_the_encoder_under_faults():
    system, a, b = pair(
        "reliable",
        tracing=True,
        duplicate_rate=0.3,
        reorder_rate=0.3,
        loss_rate=0.2,
    )
    sent = []
    send = system.network.send

    def record(src, dst, body, size=0, src_tid=None, mid=None):
        sent.append((src, body, src_tid, mid))
        send(src, dst, body, size, src_tid, mid)

    system.network.send = record
    got = b.collect("m")
    for i in range(40):
        a.inject("evt", ("a:1", "b:1", (i, Reading(i / 3), f"é{i}")))
    b.inject("t", ("b:1", 5))
    a.inject("clear", ("a:1", "b:1", 5))
    system.run_for(30.0)
    stats = system.network.stats
    assert stats.messages_duplicated and stats.messages_reordered
    assert stats.messages_retransmitted
    assert [t.values[1][0] for t in got] == list(range(40))
    assert b.query("t") == []
    expected = sum(
        len(encode_message(body, src, src_tid, mid=mid))
        if isinstance(body, Tuple)
        else len(encode_delete(body.name, body.pattern))
        for src, body, src_tid, mid in sent
    )
    assert stats.bytes_sent == expected
