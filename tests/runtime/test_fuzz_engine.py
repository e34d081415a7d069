"""Property-based engine fuzzing.

Random (but valid) OverLog programs and injection sequences run against
a node; the engine must uphold its invariants regardless of program
shape:

- no crashes (every generated program plans and runs);
- table bounds always hold;
- duplicate-insert suppression terminates recursive cascades;
- identical seeds give identical outcomes (determinism).
"""

import string

from hypothesis import given, settings, strategies as st

from repro.net.network import Network
from repro.net.topology import ConstantLatency
from repro.runtime.node import P2Node
from repro.sim.simulator import Simulator

VARS = ["A", "B", "C"]


@st.composite
def programs(draw):
    """A random program over two tables and one event, closed under the
    validator's rules (body vars bound, single event, etc.)."""
    statements = [
        "materialize(t1, 20, 8, keys(1,2)).",
        "materialize(t2, 20, 8, keys(1,2)).",
    ]
    n_rules = draw(st.integers(1, 4))
    for index in range(n_rules):
        head_table = draw(st.sampled_from(["t1", "t2", "outEvent"]))
        trigger = draw(st.sampled_from(["evt", "t1", "t2"]))
        joins = draw(
            st.lists(st.sampled_from(["t1", "t2"]), max_size=1)
        )
        body = [f"{trigger}@N(A)"]
        bound = ["A"]
        for join_index, table in enumerate(joins):
            var = VARS[(join_index + 1) % len(VARS)]
            # A fresh variable, the trigger's (a repeat across
            # patterns), a constant or an ignored column.
            arg = draw(st.sampled_from([var, var, "A", "3", "_"]))
            body.append(f"{table}@N({arg})")
            if arg == var:
                bound.append(var)
        if draw(st.booleans()):
            body.append(f"{draw(st.sampled_from(bound))} != 99")
        if draw(st.booleans()):
            body.append(f"{draw(st.sampled_from(bound))} in [0, 4]")
        if draw(st.booleans()):
            # Stays inside the injected domain, so a materialized head
            # carrying D still reaches a fixpoint.
            body.append(f"D := {draw(st.sampled_from(bound))} % 3")
            bound.append("D")
        head_var = draw(st.sampled_from(bound))
        extra = ""
        if head_table == "outEvent" and draw(st.booleans()):
            # Only event heads may widen the tuple.  An arity-3 head
            # into t1/t2 (keyed on the first two columns) shares its
            # primary key with the arity-2 tuple it was derived from;
            # each insert then REPLACES the other's row, and the
            # REPLACED deltas re-derive each other forever — duplicate
            # suppression never engages because the values alternate.
            # Keeping materialized heads at arity 2 makes the whole
            # tuple the key, so re-derivation is always a suppressed
            # REFRESH and every generated program reaches a fixpoint.
            extra = f", {head_var} + 1"
        statements.append(
            f"fz{index} {head_table}@N({head_var}{extra}) :- "
            + ", ".join(body)
            + "."
        )
    return "\n".join(statements)


def run_program(source, injections, seed=5):
    sim = Simulator(seed=seed)
    net = Network(sim, ConstantLatency(0.01))
    node = P2Node("n", sim, net)
    node.install_source(source, name="fuzz")
    outputs = node.collect("outEvent")
    for name, value in injections:
        node.inject(name, ("n", value))
    sim.run_for(60.0)
    return node, outputs


@settings(max_examples=40, deadline=None)
@given(
    programs(),
    st.lists(
        st.tuples(
            st.sampled_from(["evt", "t1", "t2"]), st.integers(0, 5)
        ),
        max_size=10,
    ),
)
def test_engine_invariants_under_random_programs(source, injections):
    node, outputs = run_program(source, injections)
    # Table bounds hold no matter what the rules derived.
    for name in ("t1", "t2"):
        assert len(node.store.get(name)) <= 8
    # The node fully drained its work (no wedged queue).
    assert len(node._queue) == 0


@settings(max_examples=20, deadline=None)
@given(
    programs(),
    st.lists(
        st.tuples(
            st.sampled_from(["evt", "t1", "t2"]), st.integers(0, 5)
        ),
        max_size=8,
    ),
)
def test_engine_is_deterministic(source, injections):
    node_a, out_a = run_program(source, injections, seed=9)
    node_b, out_b = run_program(source, injections, seed=9)
    assert out_a == out_b
    assert node_a.rule_executions == node_b.rule_executions
    for name in ("t1", "t2"):
        assert sorted(map(repr, node_a.store.get(name).scan())) == sorted(
            map(repr, node_b.store.get(name).scan())
        )
