"""Hypothesis properties behind the batch kernel's equivalence claims.

Three families:

- *Loop invariance*: the per-event loop (``batch_size=1``) and the
  tick kernel (``batch_size=None``) reach the same fixpoint — and no
  other ``batch_size`` exists.
- *Wire-length exactness*: :func:`repro.net.marshal.wire_length` and
  :func:`~repro.net.marshal.delete_length` equal the encoder's byte
  count for arbitrary marshalable tuples and delete patterns (the send
  path's byte accounting can never drift).
- *Body fidelity*: :func:`repro.net.marshal.payload_for` gives the
  receiver exactly what decoding the real wire bytes would, value by
  value and type by type — numeric subclasses included.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.system import System
from repro.errors import SimulationError
from repro.net.marshal import (
    decode_message,
    delete_length,
    encode_delete,
    encode_message,
    payload_for,
    wire_length,
    wire_values,
)
from repro.overlog.program import Program
from repro.overlog.types import NodeID
from repro.runtime.tuples import Tuple
from repro.sim.batch import DEFAULT_TICK, ExecutionConfig

# ----------------------------------------------------------------------
# Loop invariance

CASCADE_SOURCE = """
materialize(link, infinity, infinity, keys(1,2)).
materialize(path, infinity, infinity, keys(1,2,3)).
materialize(best, infinity, infinity, keys(1,2)).

p1 path@Y(Y, X, C) :- link@X(X, Y, C).
p2 path@Z(Z, X, C) :- path@Y(Y, X, C1), link@Y(Y, Z, C2),
    C := C1 + C2, C < 20.
b1 best@Y(Y, X, min<C>) :- path@Y(Y, X, C).
"""


def _fixpoint(batch_size, links):
    """Run the path cascade to quiescence; return all final tables."""
    execution = ExecutionConfig(batch_size=batch_size, tick=DEFAULT_TICK)
    system = System(seed=7, execution=execution)
    addrs = sorted({a for a, _, _ in links} | {b for _, b, _ in links})
    for addr in addrs:
        system.add_node(addr)
    program = Program.compile(CASCADE_SOURCE, name="paths")
    for addr in addrs:
        system.node(addr).install(program)
    for a, b, cost in links:
        system.node(a).inject("link", (a, b, cost))
    system.run_for(30.0)
    return {
        addr: {
            table.name: sorted(repr(t) for t in table.scan())
            for table in system.node(addr).store.tables()
        }
        for addr in addrs
    }


@st.composite
def link_sets(draw):
    n = draw(st.integers(min_value=2, max_value=5))
    addrs = [f"h{i}:{i}" for i in range(n)]
    edges = draw(
        st.lists(
            st.tuples(
                st.sampled_from(addrs),
                st.sampled_from(addrs),
                st.integers(min_value=1, max_value=6),
            ),
            min_size=1,
            max_size=8,
            unique_by=lambda e: (e[0], e[1]),
        )
    )
    return edges


@settings(max_examples=12, deadline=None)
@given(links=link_sets())
def test_loop_never_changes_fixpoint(links):
    """A recursive join cascade reaches the same fixpoint under the
    per-event loop and the tick kernel."""
    assert _fixpoint(None, links) == _fixpoint(1, links)


@pytest.mark.parametrize("batch_size", (0, 2, 4))
def test_batch_size_is_not_a_chunk_size(batch_size):
    """``batch_size`` selects a loop; there is no deltaset to size."""
    with pytest.raises(SimulationError):
        ExecutionConfig(batch_size=batch_size)


# ----------------------------------------------------------------------
# Wire-length exactness and body fidelity

node_ids = st.builds(
    lambda bits, frac: NodeID(int(frac * (1 << bits)) % (1 << bits), bits),
    st.sampled_from((8, 32, 160)),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)


class Count(int):
    """An int subclass: json spells it ``int.__repr__``, so it decodes
    as an int."""


class Reading(float):
    """A float subclass whose own ``repr`` json never uses."""

    def __repr__(self) -> str:
        return f"Reading({float.__repr__(self)})"


ints = st.integers(min_value=-(10**18), max_value=10**18)
floats = st.floats(allow_nan=True, allow_infinity=True)
numeric_subclasses = [ints.map(Count), floats.map(Reading)]
try:
    import numpy
except ImportError:  # numpy is optional: the two classes above remain
    pass
else:
    numeric_subclasses.append(floats.map(numpy.float64))

scalars = st.one_of(
    st.none(),
    st.booleans(),
    ints,
    floats,
    st.text(max_size=30),
    node_ids,
    *numeric_subclasses,
)

values = st.recursive(
    scalars,
    lambda children: st.lists(children, max_size=3).map(tuple),
    max_leaves=10,
)

wire_tuples = st.builds(
    Tuple,
    st.text(min_size=1, max_size=20),
    st.lists(values, max_size=6).map(tuple),
)

addresses = st.text(max_size=16)
maybe_tid = st.one_of(st.none(), st.integers(min_value=0, max_value=10**9))


@settings(max_examples=400, deadline=None)
@given(tup=wire_tuples, src=addresses, tid=maybe_tid, mid=maybe_tid)
def test_wire_length_matches_encoder(tup, src, tid, mid):
    body = payload_for(tup)
    assert wire_length(tup, src, tid, mid=mid) == len(
        encode_message(tup, src, tid, mid=mid)
    ) == wire_length(body, src, tid, mid=mid)


@settings(max_examples=200, deadline=None)
@given(tup=wire_tuples)
def test_delete_length_matches_encoder(tup):
    pattern = wire_values(tup.values)
    assert delete_length(tup.name, tup.values) == len(
        encode_delete(tup.name, tup.values)
    ) == delete_length(tup.name, pattern)
    decoded = decode_message(encode_delete(tup.name, tup.values))["pattern"]
    assert same_on_the_wire(pattern, decoded)


def same_on_the_wire(ours, decoded) -> bool:
    """Equal value by value and type by type at every nesting depth
    (a NaN matches a NaN, and a float is spelled like the other)."""
    if type(ours) is not type(decoded):
        return False
    if isinstance(ours, tuple):
        return len(ours) == len(decoded) and all(
            map(same_on_the_wire, ours, decoded)
        )
    if isinstance(ours, float):
        return repr(ours) == repr(decoded)
    if isinstance(ours, NodeID):
        return (ours.value, ours.bits) == (decoded.value, decoded.bits)
    return ours == decoded


@settings(max_examples=400, deadline=None)
@given(tup=wire_tuples, src=addresses, tid=maybe_tid, mid=maybe_tid)
def test_payload_for_matches_wire_roundtrip(tup, src, tid, mid):
    via_wire = decode_message(encode_message(tup, src, tid, mid=mid))
    body = payload_for(tup)
    assert body.name == via_wire["name"] == tup.name
    assert same_on_the_wire(body.values, via_wire["values"])
    # Nothing changes on the wire: the sender's own tuple travels.
    if same_on_the_wire(tup.values, via_wire["values"]):
        assert body is tup
