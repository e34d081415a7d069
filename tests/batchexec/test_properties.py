"""Hypothesis properties behind the batch kernel's equivalence claims.

Three families:

- *Loop invariance*: the per-event loop (``batch_size=1``) and the
  tick kernel (``batch_size=None``) reach the same fixpoint — and no
  other ``batch_size`` exists.
- *Wire-length exactness*: :func:`repro.net.marshal.wire_length`
  equals ``len(encode_message(...))`` for arbitrary marshalable
  tuples (the zero-copy send path's byte accounting can never drift).
- *Zero-copy payload fidelity*: :func:`repro.net.marshal.payload_for`
  produces exactly what decoding the real wire bytes would.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.system import System
from repro.errors import SimulationError
from repro.net.marshal import (
    decode_message,
    encode_message,
    payload_for,
    wire_length,
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
# Wire-length exactness and zero-copy payload fidelity

node_ids = st.builds(
    lambda bits, frac: NodeID(int(frac * (1 << bits)) % (1 << bits), bits),
    st.sampled_from((8, 32, 160)),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**18), max_value=10**18),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=30),
    node_ids,
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
    assert wire_length(tup, src, tid, mid=mid) == len(
        encode_message(tup, src, tid, mid=mid)
    )


def _nan_safe(value):
    """Replace NaN with a sentinel so payload dicts compare by value."""
    if isinstance(value, float) and value != value:
        return "<nan>"
    if isinstance(value, tuple):
        return tuple(_nan_safe(v) for v in value)
    return value


@settings(max_examples=400, deadline=None)
@given(tup=wire_tuples, src=addresses, tid=maybe_tid, mid=maybe_tid)
def test_payload_for_matches_wire_roundtrip(tup, src, tid, mid):
    via_wire = decode_message(encode_message(tup, src, tid, mid=mid))
    zero_copy = payload_for(tup, src, tid, mid=mid)
    carried = zero_copy.pop("tuple")
    assert _nan_safe(tuple(zero_copy.pop("values"))) == _nan_safe(
        tuple(via_wire.pop("values"))
    )
    assert zero_copy == via_wire
    # The ready-made Tuple the receiver adopts matches the values the
    # per-message decode path would have built its Tuple from.
    assert carried.name == tup.name
    assert _nan_safe(carried.values) == _nan_safe(
        tuple(decode_message(encode_message(tup, src, tid, mid=mid))["values"])
    )
