"""The one codec: every value of the language has one JSON spelling.

- **Round trip** — ``decode(encode(v)) == v`` for every value the
  language produces, of the same type up to base-class normalisation
  (a sequence comes back a tuple, a ``str`` subclass a ``str``) and
  ``infinity`` as the singleton; the writer spells a raw value the way
  it spells its encoding, and its lines are a fixed point of the reader.
- **The domain's edge** — a value outside it reaches the runtime only
  from Python: ``inject`` and ``bindings=`` reject it before any table,
  tap or send sees the tuple.
"""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro import codec
from repro.core.system import System
from repro.errors import NetworkError
from repro.overlog.program import Program
from repro.overlog.types import INFINITY, NodeID

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**80), max_value=2**80),
    st.floats(allow_nan=False),
    st.text(max_size=8),
)
values = st.recursive(
    st.one_of(
        scalars,
        st.builds(NodeID, st.integers(0, 2**64), st.integers(1, 64)),
        st.just(INFINITY),
    ),
    lambda inner: st.lists(inner, max_size=3).map(tuple),
    max_leaves=8,
)


def same(a, b) -> bool:
    """Equal, and of the same type all the way down."""
    if type(a) is not type(b):
        return False
    if type(a) is tuple:
        return len(a) == len(b) and all(map(same, a, b))
    if type(a) is NodeID:
        return (a.value, a.bits) == (b.value, b.bits)
    return repr(a) == repr(b)


@given(values)
def test_every_value_decodes_to_itself(value):
    line = codec.dumps(value)
    assert line == codec.dumps(codec.encode(value))
    assert line.isascii() and codec.dumps(codec.loads(line)) == line
    back = codec.decode(codec.loads(line))
    assert same(back, value)
    assert same(codec.decode_values(codec.encode_values([value])), (value,))


class Name(str):
    pass


class Count(int):
    pass


def test_a_subclass_comes_back_as_its_base_class():
    for value, base in ((Name("x"), str), (Count(3), int), ([1, "a"], tuple)):
        back = codec.decode(codec.loads(codec.dumps(value)))
        assert type(back) is base and back == (
            tuple(value) if base is tuple else value
        )


def test_the_two_tags():
    assert codec.dumps(NodeID(3141592653)) == '{"nodeid":[3141592653,32]}'
    assert codec.dumps(INFINITY) == '{"infinity":null}'
    assert codec.decode({"infinity": None}) is INFINITY
    with pytest.raises(ValueError, match="not an encoded value"):
        codec.decode({"!r": "NodeID(5)"})


OUTSIDE = (b"x", frozenset({1}), 1j, object())
OUTSIDE_IDS = ("bytes", "frozenset", "complex", "object")


@pytest.mark.parametrize("value", OUTSIDE, ids=OUTSIDE_IDS)
def test_the_codec_rejects_what_the_language_cannot_hold(value):
    for call in (codec.encode, codec.dumps, codec.check):
        with pytest.raises(NetworkError, match="cannot be marshaled"):
            call((1, value))


@pytest.mark.parametrize("value", OUTSIDE, ids=OUTSIDE_IDS)
@pytest.mark.parametrize(
    "name, location",
    (("t", "a:1"), ("evt", "a:1"), ("t", "b:1")),
    ids=("local-table", "local-event", "remote"),
)
def test_inject_rejects_a_value_before_anything_sees_it(name, location, value):
    system = System(seed=1)
    a = system.add_node("a:1", tracing=True, logging=True)
    b = system.add_node("b:1", tracing=True, logging=True)
    for node in (a, b):
        node.install_source(
            "materialize(t, infinity, infinity, keys(1,2)).\n"
            "r1 seen@N(X) :- evt@N(X)."
        )
    delivered = []
    a.on_deliver.append(delivered.append)
    with pytest.raises(NetworkError, match="cannot be marshaled"):
        a.inject(name, (location, (1, value)))
    system.run_for(1.0)
    assert delivered == [] and system.network.stats.messages_sent == 0
    for node in (a, b):
        for relation in ("t", "tupleTable", "tupleLog", "tableLog", "ruleExec"):
            assert node.query(relation) == [], (node.address, relation)


@pytest.mark.parametrize("value", OUTSIDE, ids=OUTSIDE_IDS)
def test_bindings_reject_a_value_outside_the_domain(value):
    source = "r1 out@N(X, k) :- evt@N(X)."
    with pytest.raises(NetworkError, match="cannot be marshaled"):
        Program.compile(source, bindings={"k": value})
    Program.compile(source, bindings={"k": INFINITY})
