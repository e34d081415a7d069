"""Tracer behaviour through real node execution (sequential path)."""

import pytest

from repro.introspect import Tracer


@pytest.fixture
def traced(make_node):
    node = make_node("n:1")
    tracer = Tracer(node, lifetime=100.0)
    return node, tracer


def rule_exec_rows(node, rule=None):
    rows = node.query("ruleExec")
    if rule is not None:
        rows = [r for r in rows if r.values[1] == rule]
    return rows


def test_event_and_precondition_rows(traced):
    node, tracer = traced
    node.install_source(
        """
        materialize(prec, 100, 10, keys(1,2)).
        r1 head@Z(Y) :- event@N(Y), prec@N(Z).
        """
    )
    node.inject("prec", ("n:1", "n:1"))
    node.inject("event", ("n:1", "y"))
    rows = rule_exec_rows(node, "r1")
    assert len(rows) == 2
    flags = sorted(r.values[6] for r in rows)
    assert flags == [False, True]
    # Both rows share the same effect ID.
    assert len({r.values[3] for r in rows}) == 1


def test_times_are_ordered(traced):
    node, tracer = traced
    node.install_source("r1 out@N(X) :- event@N(X).")
    node.inject("event", ("n:1", 1))
    (row,) = rule_exec_rows(node, "r1")
    in_t, out_t = row.values[4], row.values[5]
    assert out_t > in_t  # micro-clock makes rule time strictly positive


def test_rule_chain_links_by_tuple_id(traced):
    node, tracer = traced
    node.install_source(
        """
        r1 mid@N(X) :- event@N(X).
        r2 out@N(X) :- mid@N(X).
        """
    )
    node.inject("event", ("n:1", 1))
    (row1,) = rule_exec_rows(node, "r1")
    (row2,) = rule_exec_rows(node, "r2")
    # r1's effect is r2's cause.
    assert row1.values[3] == row2.values[2]


def test_no_output_no_row(traced):
    """The 'only store executions that produce a valid output' optimization."""
    node, tracer = traced
    node.install_source(
        """
        materialize(prec, 100, 10, keys(1,2)).
        r1 head@N(Z) :- event@N(), prec@N(Z).
        """
    )
    node.inject("event", ("n:1",))  # prec empty: no output
    assert rule_exec_rows(node, "r1") == []


def test_multiple_preconditions_one_row_each(traced):
    node, tracer = traced
    node.install_source(
        """
        materialize(p1, 100, 10, keys(1,2)).
        materialize(p2, 100, 10, keys(1,2)).
        r1 head@N(A, B) :- event@N(), p1@N(A), p2@N(B).
        """
    )
    node.inject("p1", ("n:1", "a"))
    node.inject("p2", ("n:1", "b"))
    node.inject("event", ("n:1",))
    rows = rule_exec_rows(node, "r1")
    # one event row + two precondition rows
    assert len(rows) == 3
    assert sum(1 for r in rows if r.values[6] is True) == 1


def test_cross_network_identity(sim, make_node):
    a = make_node("a:1")
    b = make_node("b:1")
    tracer_a, tracer_b = Tracer(a), Tracer(b)
    program = """
    r1 out@Dst(X) :- event@N(Dst, X).
    r2 final@N(X) :- out@N(X).
    """
    a.install_source(program)
    b.install_source(program)
    a.inject("event", ("a:1", "b:1", 7))
    sim.run_for(1.0)
    # b received 'out' and must know its identity at a.
    (row2,) = [r for r in b.query("ruleExec") if r.values[1] == "r2"]
    cause_id = row2.values[2]
    src = tracer_b.registry.source_of(cause_id)
    assert src is not None
    src_addr, src_tid = src
    assert src_addr == "a:1"
    (row1,) = [r for r in a.query("ruleExec") if r.values[1] == "r1"]
    assert row1.values[3] == src_tid


def test_trace_tables_never_traced(traced):
    """Rules over ruleExec must not recursively generate ruleExec rows."""
    node, tracer = traced
    node.install_source(
        "meta watch@N(R) :- ruleExec@N(R, C, E, T1, T2, F).\n"
        "r1 out@N(X) :- event@N(X)."
    )
    got = node.collect("watch")
    node.inject("event", ("n:1", 1))
    assert len(got) >= 1  # meta-query sees the trace...
    meta_rows = [r for r in node.query("ruleExec") if r.values[1] == "meta"]
    assert meta_rows == []  # ...but is itself untraced


def test_executions_recorded_counter(traced):
    node, tracer = traced
    node.install_source("r1 out@N(X) :- event@N(X).")
    for i in range(3):
        node.inject("event", ("n:1", i))
    assert tracer.executions_recorded == 3


def test_ruleexec_expiry_releases_tuples(sim, traced):
    node, tracer = traced
    node.install_source("r1 out@N(X) :- event@N(X).")
    node.inject("event", ("n:1", 1))
    assert tracer.registry.retained() > 0
    sim.run_for(150.0)  # past the 100 s trace lifetime
    assert node.query("ruleExec") == []
    assert tracer.registry.retained() == 0
