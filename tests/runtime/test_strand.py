"""Strand execution semantics, driven directly (no node)."""

import random

import pytest

from repro.overlog.builtins import EvalContext
from repro.overlog.program import Program
from repro.runtime.planner import Planner
from repro.runtime.store import TableStore
from repro.runtime.strand import DeleteAction, TraceHooks
from repro.runtime.tuples import Tuple


class Recorder(TraceHooks):
    def __init__(self):
        self.events = []

    def input_observed(self, strand, tup, when):
        self.events.append(("in", tup.name))

    def precondition_observed(self, strand, stage, tup, when):
        self.events.append(("prec", stage, tup.values))

    def output_observed(self, strand, tup, when):
        self.events.append(("out", tup.values))

    def stage_completed(self, strand, stage):
        self.events.append(("done", stage))


@pytest.fixture
def env():
    store = TableStore(lambda: 0.0)
    ctx = EvalContext(lambda: 0.0, random.Random(0))
    return store, ctx


def compile_one(store, src, bindings=None):
    compiled = Planner(store).plan(Program.compile(src, bindings=bindings))
    return compiled.strands


def test_fire_returns_emit_actions(env):
    store, ctx = env
    (strand,) = compile_one(store, "r out@N(X, X + 1) :- e@N(X).")
    actions = strand.fire(Tuple("e", ("n", 1)), ctx)
    assert len(actions) == 1
    assert type(actions[0]) is Tuple
    assert actions[0] == Tuple("out", ("n", 1, 2))


def test_fire_nonmatching_trigger_is_noop(env):
    store, ctx = env
    (strand,) = compile_one(store, 'r out@N(X) :- e@N(X, "want").')
    assert strand.fire(Tuple("e", ("n", 1, "other")), ctx) == []


def test_join_backtracking_order(env):
    store, ctx = env
    strands = compile_one(
        store,
        """
        materialize(p1, 10, 10, keys(1,2)).
        materialize(p2, 10, 10, keys(1,2)).
        r h@N(A, B) :- e@N(), p1@N(A), p2@N(B).
        """,
    )
    store.get("p1").insert(Tuple("p1", ("n", "a1")))
    store.get("p1").insert(Tuple("p1", ("n", "a2")))
    store.get("p2").insert(Tuple("p2", ("n", "b1")))
    hooks = Recorder()
    actions = strands[0].fire(Tuple("e", ("n",)), ctx, hooks=hooks)
    assert len(actions) == 2  # 2 p1 matches x 1 p2 match
    # Stage completions come last, ascending.
    assert hooks.events[-2:] == [("done", 1), ("done", 2)]


def test_trace_hooks_sequence(env):
    store, ctx = env
    strands = compile_one(
        store,
        """
        materialize(prec, 10, 10, keys(1,2)).
        r1 head@Z(Y) :- event@N(Y), prec@N(Z).
        """,
    )
    store.get("prec").insert(Tuple("prec", ("n", "z")))
    hooks = Recorder()
    strands[0].fire(Tuple("event", ("n", "y")), ctx, hooks=hooks)
    assert hooks.events == [
        ("in", "event"),
        ("prec", 1, ("n", "z")),
        ("out", ("z", "y")),
        ("done", 1),
    ]


def test_delete_action_with_wildcards(env):
    store, ctx = env
    strands = compile_one(
        store,
        """
        materialize(t, 10, 10, keys(1,2)).
        d delete t@N(K, V) :- clear@N(K).
        """,
    )
    delete_strand = [s for s in strands if s.rule.delete][0]
    actions = delete_strand.fire(Tuple("clear", ("n", "x")), ctx)
    assert isinstance(actions[0], DeleteAction)
    assert actions[0].pattern == ("n", "x", None)


def test_aggregate_groups_and_counts(env):
    store, ctx = env
    strands = compile_one(
        store,
        """
        materialize(t, 10, 10, keys(1,2,3)).
        r cnt@N(K, count<*>) :- e@N(), t@N(K, V).
        """,
    )
    for key, value in [("a", 1), ("a", 2), ("b", 9)]:
        store.get("t").insert(Tuple("t", ("n", key, value)))
    actions = strands[0].fire(Tuple("e", ("n",)), ctx)
    results = sorted((a.values[1], a.values[2]) for a in actions)
    assert results == [("a", 2), ("b", 1)]


def test_count_zero_group_from_trigger_bindings(env):
    """sr8 semantics: count over no matches still emits 0 when the
    group key is fully determined by the trigger."""
    store, ctx = env
    strands = compile_one(
        store,
        """
        materialize(snapState, 10, 10, keys(1)).
        sr8 haveSnap@N(Src, I, count<*>) :- snapState@N(I, S),
            marker@N(Src, I).
        """,
    )
    marker_strand = [s for s in strands if s.trigger_name == "marker"][0]
    actions = marker_strand.fire(Tuple("marker", ("n", "src", 1)), ctx)
    assert len(actions) == 1
    assert actions[0].values == ("n", "src", 1, 0)


def test_min_aggregate_no_zero_group(env):
    store, ctx = env
    strands = compile_one(
        store,
        """
        materialize(t, 10, 10, keys(1,2)).
        r m@N(min<V>) :- e@N(), t@N(V).
        """,
    )
    actions = strands[0].fire(Tuple("e", ("n",)), ctx)
    assert actions == []  # min of nothing emits nothing


def test_assignment_as_equality_filter_when_rebound(env):
    store, ctx = env
    (strand,) = compile_one(store, "r out@N(X) :- e@N(X, Y), X := Y + 1.")
    assert strand.fire(Tuple("e", ("n", 3, 2)), ctx)  # 3 == 2+1
    assert strand.fire(Tuple("e", ("n", 4, 2)), ctx) == []


def test_failing_head_expression_drops_derivation(env):
    store, ctx = env
    (strand,) = compile_one(store, "r out@N(X / Y) :- e@N(X, Y).")
    assert strand.fire(Tuple("e", ("n", 1, 0)), ctx) == []  # div by zero
    assert len(strand.fire(Tuple("e", ("n", 4, 2)), ctx)) == 1


def test_assignment_evaluates_per_derivation(env):
    """Regression: `R := f_rand()` after a join must run once per join
    match, not once per trigger (the paper's cs2 gives each fan-out
    lookup its own request ID)."""
    store, ctx = env
    strands = compile_one(
        store,
        """
        materialize(f, 10, 10, keys(1,2)).
        cs2 out@N(F, R) :- e@N(), f@N(F), R := f_rand().
        """,
    )
    for name in ("f1", "f2", "f3"):
        store.get("f").insert(Tuple("f", ("n", name)))
    actions = strands[0].fire(Tuple("e", ("n",)), ctx)
    request_ids = [a.values[2] for a in actions]
    assert len(set(request_ids)) == 3


def test_firing_counters(env):
    store, ctx = env
    (strand,) = compile_one(store, "r out@N(X) :- e@N(X).")
    strand.fire(Tuple("e", ("n", 1)), ctx)
    strand.fire(Tuple("e", ("n", 2)), ctx)
    assert strand.firings == 2
    assert strand.outputs == 2
