"""Node-level behaviour: installation, routing, delta triggering,
periodic strands, deletes, subscriptions, lifecycle."""

import pytest

from repro.errors import PlannerError, RuntimeStateError
from repro.runtime.node import P2Node


def test_install_materializes_tables(make_node):
    node = make_node("a:1")
    node.install_source("materialize(t, 10, 10, keys(1)).")
    assert node.store.has("t")


def test_event_rule_fires_on_injection(make_node):
    node = make_node("a:1")
    node.install_source("r out@N(X) :- evt@N(X).")
    got = node.collect("out")
    node.inject("evt", ("a:1", 42))
    assert [t.values[1] for t in got] == [42]


def test_table_insert_triggers_delta_rule(make_node):
    node = make_node("a:1")
    node.install_source(
        """
        materialize(t, 10, 10, keys(1,2)).
        r out@N(X) :- t@N(X).
        """
    )
    got = node.collect("out")
    node.inject("t", ("a:1", 7))
    assert len(got) == 1


def test_duplicate_insert_does_not_retrigger(make_node):
    node = make_node("a:1")
    node.install_source(
        """
        materialize(t, 10, 10, keys(1,2)).
        r out@N(X) :- t@N(X).
        """
    )
    got = node.collect("out")
    node.inject("t", ("a:1", 7))
    node.inject("t", ("a:1", 7))
    assert len(got) == 1


def test_remote_head_routes_over_network(sim, make_node):
    a = make_node("a:1")
    b = make_node("b:1")
    program = 'r out@Dst(X) :- evt@N(Dst, X).'
    a.install_source(program)
    b.install_source(program)
    got = b.collect("out")
    a.inject("evt", ("a:1", "b:1", 9))
    sim.run_for(1.0)
    assert [t.values[1] for t in got] == [9]


def test_join_against_table(make_node):
    node = make_node("a:1")
    node.install_source(
        """
        materialize(prec, 10, 10, keys(1,2)).
        r1 head@Z(Y) :- event@N(Y), prec@N(Z).
        """
    )
    got = node.collect("head")
    node.inject("prec", ("a:1", "a:1"))
    node.inject("event", ("a:1", "y"))
    assert len(got) == 1


def test_multi_way_join_produces_cartesian_matches(make_node):
    node = make_node("a:1")
    node.install_source(
        """
        materialize(p1, 10, 10, keys(1,2)).
        materialize(p2, 10, 10, keys(1,2)).
        r h@N(A, B) :- e@N(), p1@N(A), p2@N(B).
        """
    )
    got = node.collect("h")
    for x in ("x1", "x2"):
        node.inject("p1", ("a:1", x))
    for y in ("y1", "y2", "y3"):
        node.inject("p2", ("a:1", y))
    node.inject("e", ("a:1",))
    assert len(got) == 6


def test_condition_filters(make_node):
    node = make_node("a:1")
    node.install_source("r out@N(X) :- evt@N(X), X > 5.")
    got = node.collect("out")
    node.inject("evt", ("a:1", 3))
    node.inject("evt", ("a:1", 7))
    assert [t.values[1] for t in got] == [7]


def test_assignment_computes(make_node):
    node = make_node("a:1")
    node.install_source("r out@N(Y) :- evt@N(X), Y := X * 2 + 1.")
    got = node.collect("out")
    node.inject("evt", ("a:1", 10))
    assert got[0].values[1] == 21


def test_delete_rule_with_wildcards(make_node):
    node = make_node("a:1")
    node.install_source(
        """
        materialize(t, 100, 10, keys(1,2)).
        d delete t@N(K, V) :- clear@N(K).
        """
    )
    node.inject("t", ("a:1", "x", 1))
    node.inject("t", ("a:1", "y", 2))
    node.inject("clear", ("a:1", "x"))
    remaining = node.query("t")
    assert len(remaining) == 1
    assert remaining[0].values[1] == "y"


def test_remote_delete(sim, make_node):
    a = make_node("a:1")
    b = make_node("b:1")
    source = """
    materialize(t, 100, 10, keys(1,2)).
    d delete t@Dst(K, V) :- clear@N(Dst, K).
    """
    a.install_source(source)
    b.install_source(source)
    b.inject("t", ("b:1", "x", 1))
    a.inject("clear", ("a:1", "b:1", "x"))
    sim.run_for(1.0)
    assert b.query("t") == []


def test_periodic_strand_fires(sim, make_node):
    node = make_node("a:1")
    node.install_source("r tick@N(E) :- periodic@N(E, 1).")
    got = node.collect("tick")
    sim.run_for(5.5)
    assert 4 <= len(got) <= 6  # random initial phase


def test_periodic_nonces_differ(sim, make_node):
    node = make_node("a:1")
    node.install_source("r tick@N(E) :- periodic@N(E, 1).")
    got = node.collect("tick")
    sim.run_for(4.0)
    nonces = [t.values[1] for t in got]
    assert len(set(nonces)) == len(nonces)


def test_periodic_nonces_are_the_streams_randrange_draws(sim, make_node):
    """The node spells ``rng.randrange(1 << 31)`` as the draws it makes;
    the nonces (they are in every trace and store) must be the same."""
    from repro.sim.simulator import Simulator

    node = make_node("a:1")
    node.install_source("r tick@N(E) :- periodic@N(E, 0.01).")
    got = node.collect("tick")
    sim.run_for(30.0)
    reference = Simulator(seed=42).random.stream("node.a:1")
    reference.uniform(0, 0.01)  # the timer's initial phase
    expected = [reference.randrange(1 << 31) for _ in got]
    assert len(got) >= 2900
    assert [t.values[1] for t in got] == expected


def test_rule_with_two_events_rejected(make_node):
    node = make_node("a:1")
    with pytest.raises(PlannerError):
        node.install_source("r out@N(X) :- e1@N(X), e2@N(X).")


def test_recursion_terminates_via_dedup(make_node):
    node = make_node("a:1")
    node.install_source(
        """
        materialize(reach, 100, 100, keys(1,2)).
        materialize(edge, 100, 100, keys(1,2,3)).
        r1 reach@N(B) :- edge@N(A, B), reach@N(A).
        """
    )
    for a, b in [("x", "y"), ("y", "z"), ("z", "x")]:  # a cycle
        node.inject("edge", ("a:1", a, b))
    node.inject("reach", ("a:1", "x"))
    reached = {t.values[1] for t in node.query("reach")}
    assert reached == {"x", "y", "z"}


def test_stopped_node_rejects_work(make_node):
    node = make_node("a:1")
    node.stop()
    with pytest.raises(RuntimeStateError):
        node.inject("evt", ("a:1",))
    with pytest.raises(RuntimeStateError):
        node.install_source("r out@N(X) :- evt@N(X).")


def test_stop_detaches_from_network(sim, network, make_node):
    node = make_node("a:1")
    node.stop()
    assert not network.is_attached("a:1")


def test_messages_to_stopped_node_drop(sim, network, make_node):
    a = make_node("a:1")
    b = make_node("b:1")
    b.install_source("r out@N(X) :- evt@N(X).")
    got = b.collect("out")
    b.stop()
    a.install_source("r evt@Dst(X) :- go@N(Dst, X).")
    a.inject("go", ("a:1", "b:1", 5))
    sim.run_for(1.0)
    assert got == []


def test_work_accounting_accumulates(make_node):
    node = make_node("a:1")
    node.install_source("r out@N(X) :- evt@N(X).")
    before = node.work.busy_seconds
    node.inject("evt", ("a:1", 1))
    assert node.work.busy_seconds > before
    assert node.rule_executions >= 1


def test_query_on_unmaterialized_returns_empty(make_node):
    assert make_node("a:1").query("nothing") == []


def test_head_expression_evaluation(make_node):
    node = make_node("a:1")
    node.install_source('r out@N(A + B, "lit") :- evt@N(A, B).')
    got = node.collect("out")
    node.inject("evt", ("a:1", 2, 3))
    assert got[0].values[1:] == (5, "lit")


def test_symbolic_binding_parameterizes_program(make_node):
    node = make_node("a:1")
    node.install_source(
        "r out@N(X) :- evt@N(X), X > thresh.",
        bindings={"thresh": 10},
    )
    got = node.collect("out")
    node.inject("evt", ("a:1", 5))
    node.inject("evt", ("a:1", 15))
    assert [t.values[1] for t in got] == [15]


def test_stop_detaches_table_observers_and_subscribers(make_node):
    node = make_node("a:1")
    node.install_source(
        """
        materialize(t, 10, 10, keys(1,2)).
        r t@N(X) :- evt@N(X).
        """
    )
    sink = []
    node.subscribe("t", sink.append)
    table = node.store.get("t")
    node.inject("evt", ("a:1", 1))
    assert len(sink) == 1
    assert table.on_insert

    node.stop()
    # Every callback path is detached: observers, subscribers, hooks.
    assert table.on_insert == []
    assert table.on_remove == []
    assert table.on_refresh == []
    assert node.store.on_create == []
    assert node.on_deliver == []
    assert node.on_install == []
    assert node.hooks is None and node.obs is None

    # A direct post-mortem table write reaches no former subscriber.
    from repro.runtime.tuples import Tuple as T

    table.insert(T("t", ("a:1", 99)))
    assert len(sink) == 1


def test_stopped_node_sends_no_postmortem_tuples_to_collect(
    sim, network, make_node
):
    node = make_node("a:1")
    node.install_source(
        """
        materialize(t, 10, 10, keys(1,2)).
        r t@N(X) :- evt@N(X).
        """
    )
    got = node.collect("t")
    node.inject("evt", ("a:1", 1))
    assert len(got) == 1
    table = node.store.get("t")
    node.stop()
    from repro.runtime.tuples import Tuple as T

    table.insert(T("t", ("a:1", 2)))
    sim.run_for(1.0)
    assert len(got) == 1


def test_node_status_property(make_node):
    node = make_node("a:1")
    assert node.status == "up"
    node.restarts = 2
    assert node.status == "recovered"
    node.stop()
    assert node.status == "down"


def test_failing_rule_does_not_take_the_pump_down(make_node):
    """An expression that cannot be evaluated abandons its derivation —
    in an assignment as in a condition or a head — and the strands
    queued behind it fire in the same turn."""
    node = make_node("a:1")
    compiled = node.install_source(
        """
        materialize(t, 10, 10, keys(1,2)).
        r1 out@N(X) :- ev@N(A), X := A / 0.
        r2 out2@N(A) :- ev@N(A).
        r3 delete t@N(A / 0) :- ev@N(A).
        r4 lo@N(min<B>) :- ev@N(A), t@N(B).
        """
    )
    node.inject("t", ("a:1", 1))
    node.inject("t", ("a:1", "one"))
    out, out2, lo = node.collect("out"), node.collect("out2"), node.collect("lo")
    node.inject("ev", ("a:1", 5))
    assert [t.values for t in out2] == [("a:1", 5)]
    assert out == [] and lo == []
    assert len(node.query("t")) == 2
    assert [s.eval_errors for s in compiled.strands] == [1, 0, 1, 1]
    assert not node._queue


# ----------------------------------------------------------------------
# Delivery sinks: a relation's table / strands / subscribers are resolved
# at its first delivery and must follow every later change.


def test_event_relation_materialized_later_lands_in_its_table(make_node):
    node = make_node("a:1")
    node.install_source("r seen@N(X) :- evt@N(X).")
    got = node.collect("seen")
    node.inject("evt", ("a:1", 1))  # `seen` is delivered as an event
    assert len(got) == 1 and node.query("seen") == []
    node.install_source(
        """
        materialize(seen, 10, 10, keys(1,2)).
        d echo@N(X) :- seen@N(X).
        """
    )
    echoed = node.collect("echo")
    node.inject("evt", ("a:1", 2))
    assert [t.values[1] for t in node.query("seen")] == [2]
    assert [t.values[1] for t in got] == [1, 2]  # subscribers still hear it
    assert [t.values[1] for t in echoed] == [2]  # and it triggers as a delta


def test_table_created_directly_on_the_store_is_seen_by_delivery(make_node):
    from repro.overlog.ast import Materialize

    node = make_node("a:1")
    node.inject("m", ("a:1", 1))
    node.store.materialize(Materialize("m", 10, 10, [1, 2]))
    node.inject("m", ("a:1", 2))
    assert [t.values[1] for t in node.query("m")] == [2]


def test_subscribe_and_unsubscribe_after_first_delivery(make_node):
    node = make_node("a:1")
    node.install_source("r out@N(X) :- evt@N(X).")
    node.inject("evt", ("a:1", 1))  # resolves both sinks with nobody listening
    heard = []
    node.subscribe("out", heard.append)
    node.inject("evt", ("a:1", 2))
    node.unsubscribe("out", heard.append)
    node.inject("evt", ("a:1", 3))
    assert [t.values[1] for t in heard] == [2]


def test_install_after_first_delivery_triggers_and_uninstall_stops(make_node):
    node = make_node("a:1")
    node.inject("evt", ("a:1", 0))  # nothing installed yet
    compiled = node.install_source("r out@N(X) :- evt@N(X).")
    got = node.collect("out")
    node.inject("evt", ("a:1", 1))
    node.uninstall(compiled)
    node.inject("evt", ("a:1", 2))
    assert [t.values[1] for t in got] == [1]


def test_uninstall_drops_work_still_queued(make_node):
    node = make_node("a:1")
    first = node.install_source("r1 mid@N(X) :- evt@N(X).")
    second = node.install_source(
        """
        r2 late@N(X) :- mid@N(X).
        r3 kept@N(X) :- mid@N(X).
        """
    )
    late, kept = node.collect("late"), node.collect("kept")
    # `mid` is delivered mid-pump: r2 and r3 are queued, then this
    # subscriber removes the program they belong to.
    node.subscribe("mid", lambda tup: node.uninstall(second))
    node.inject("evt", ("a:1", 1))
    assert late == [] and kept == []
    assert not node._queue and first in node.programs


def test_stop_mid_pump_ends_the_turn(sim, network, make_node):
    from repro.runtime.tuples import Tuple as T

    node, b = make_node("a:1"), make_node("b:1")
    node.install_source(
        """
        materialize(row, infinity, 10, keys(1,2)).
        r1 fan@N(X) :- evt@N(_), row@N(X).
        r2 out@Dst(X) :- fan@N(X), Dst := "b:1".
        """
    )
    for i in range(3):
        node.inject("row", ("a:1", i))
    heard, received = [], b.collect("out")
    at_stop = {}

    def stop_at_first(tup: T) -> None:
        heard.append(tup)
        node.stop()
        at_stop.update(
            firings=node.rule_executions,
            delivered=node.tuples_delivered,
            sent=network.stats.messages_sent,
        )

    node.subscribe("fan", stop_at_first)
    node.inject("evt", ("a:1", 0))
    sim.run_for(1.0)
    # r1's other two heads would re-queue r2 on the stopped node: the
    # turn ends at the stop instead — no firing, no delivery, no send.
    assert len(heard) == 1 and at_stop["firings"] == 1
    assert node.rule_executions == at_stop["firings"]
    assert node.tuples_delivered == at_stop["delivered"]
    assert network.stats.messages_sent == at_stop["sent"] == 0
    assert received == []
    assert node.stopped and not node._pumping and not node._queue
    with pytest.raises(RuntimeStateError):
        node.inject("evt", ("a:1", 1))


def test_foreign_head_is_sent_not_delivered(sim, network, make_node):
    a, b = make_node("a:1"), make_node("b:1")
    a.install_source("r out@Dst(X) :- evt@N(Dst, X).")
    here, there = a.collect("out"), b.collect("out")
    a.inject("evt", ("a:1", "b:1", 9))
    assert a.tuples_delivered == 1  # the injected evt, not the head
    assert network.stats.messages_sent == 1
    sim.run_for(1.0)
    assert here == [] and [t.values for t in there] == [("b:1", 9)]


def test_inject_of_a_foreign_tuple_routes(sim, network, make_node):
    a, b = make_node("a:1"), make_node("b:1")
    got = b.collect("note")
    a.inject("note", ("b:1", "hello"))
    assert a.tuples_delivered == 0 and network.stats.messages_sent == 1
    sim.run_for(1.0)
    assert [t.values for t in got] == [("b:1", "hello")]


def test_remote_delete_head_goes_over_the_wire(sim, make_node):
    a, b = make_node("a:1"), make_node("b:1")
    b.install_source("materialize(t, 100, 10, keys(1,2)).")
    a.install_source(
        """
        materialize(t, 100, 10, keys(1,2)).
        d delete t@Dst(X) :- drop@N(Dst, X).
        """
    )
    for node in (a, b):
        node.inject("t", (node.address, 1))
        node.inject("t", (node.address, 2))
    a.inject("drop", ("a:1", "b:1", 1))
    sim.run_for(1.0)
    assert [t.values[1] for t in b.query("t")] == [2]
    assert [t.values[1] for t in a.query("t")] == [1, 2]
