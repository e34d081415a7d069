"""The paper's standalone code examples, executed literally.

Section 2's path-vector rule (Figure 1) and the worked ruleExec example
of §2.1.1 are run exactly as printed and checked against the paper's
stated outcomes.
"""

import pytest

from repro.core.system import System


def test_figure1_all_routes_rule():
    """path(B,C,[B,A]+P,W+Y) :- link(A,B,W), path(A,C,P,Y)."""
    system = System(seed=1)
    source = """
    materialize(link, 100, 20, keys(1,2)).
    materialize(path, 100, 100, keys(1,2,3)).
    p0 path@A(B, [A, B], W) :- link@A(B, W).
    p1 path(B, C, [B, A] + P, W + Y) :- link(A, B, W), path(A, C, P, Y).
    """
    for name in ("a", "b", "c"):
        system.add_node(name)
    system.install_source(source, name="allroutes")
    system.node("a").inject("link", ("a", "b", 1))
    system.node("b").inject("link", ("b", "c", 2))
    system.run_for(5.0)

    paths_at_c = {
        (t.values[1], t.values[2], t.values[3])
        for t in system.node("c").query("path")
    }
    # c reaches c via the reversed two-hop path with cost 1+2.
    assert ("c", ("c", "b", "b", "c"), 4) in paths_at_c
    # And the rule's distributed recursion crossed the network.
    assert system.network.stats.messages_delivered >= 2


def test_section211_rule_exec_worked_example():
    """r1 head@Z(Y) :- event@N(Y), prec@N(Z): two ruleExec rows appear
    at n — the event row and the precondition row — both citing the
    same effect, with ts <= ti <= te (the paper's timestamps)."""
    system = System(seed=2)
    n = system.add_node("n", tracing=True)
    z = system.add_node("z", tracing=True)
    source = """
    materialize(prec, 100, 10, keys(1,2)).
    r1 head@Z(Y) :- event@N(Y), prec@N(Z).
    """
    n.install_source(source)
    z.install_source(source)
    n.inject("prec", ("n", "z"))
    n.inject("event", ("n", "y"))
    system.run_for(1.0)

    rows = [r for r in n.query("ruleExec") if r.values[1] == "r1"]
    assert len(rows) == 2
    (event_row,) = [r for r in rows if r.values[6] is True]
    (prec_row,) = [r for r in rows if r.values[6] is False]
    assert event_row.values[3] == prec_row.values[3]  # same effect
    ts, te = event_row.values[4], event_row.values[5]
    ti = prec_row.values[4]
    assert ts <= ti <= te

    # The tupleTable rows of the worked example: the head tuple is
    # memoized at n with destination z, and at z with source (n, id@n).
    effect_id = event_row.values[3]
    n_row = n.store.get("tupleTable").lookup_key((effect_id,))
    assert n_row.values[2:] == ("n", effect_id, "z")
    arrived = [
        r for r in z.query("tupleTable") if r.values[2] == "n"
    ]
    assert any(r.values[3] == effect_id for r in arrived)


def test_figure4_synthetic_periodic_rule():
    """result@NAddr() :- periodic@NAddr(E, 1). — the Figure 4 benchmark
    rule, checked here for basic behaviour (one firing per second)."""
    system = System(seed=3)
    node = system.add_node("n")
    node.install_source("result@NAddr() :- periodic@NAddr(E, 1).")
    got = node.collect("result")
    system.run_for(10.0)
    assert 8 <= len(got) <= 11


def test_figure5_synthetic_piggyback_rule():
    """result@NAddr() :- event@NAddr(), bestSucc@NAddr(SID, SAddr)."""
    system = System(seed=4)
    node = system.add_node("n")
    node.install_source(
        """
        materialize(bestSucc, 100, 1, keys(1)).
        result@NAddr() :- event@NAddr(), bestSucc@NAddr(SID, SAddr).
        """
    )
    got = node.collect("result")
    node.inject("bestSucc", ("n", 42, "m"))
    node.inject("event", ("n",))
    node.inject("event", ("n",))
    assert len(got) == 2
