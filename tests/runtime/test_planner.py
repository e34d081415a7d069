import pytest

from repro.errors import PlannerError
from repro.overlog.program import Program
from repro.runtime.elements import (
    AssignElement,
    JoinElement,
    SelectElement,
)
from repro.runtime.planner import Planner
from repro.runtime.store import TableStore


@pytest.fixture
def store():
    return TableStore(lambda: 0.0)


def plan(store, src, bindings=None):
    planner = Planner(store)
    return planner.plan(Program.compile(src, bindings=bindings))


def test_event_rule_gets_single_strand(store):
    compiled = plan(
        store,
        """
        materialize(t, 10, 10, keys(1)).
        r out@N(X) :- e@N(X), t@N(X).
        """,
    )
    assert len(compiled.strands) == 1
    assert compiled.strands[0].trigger_name == "e"


def test_all_table_rule_gets_strand_per_predicate(store):
    compiled = plan(
        store,
        """
        materialize(a, 10, 10, keys(1)).
        materialize(b, 10, 10, keys(1)).
        r out@N(X) :- a@N(X), b@N(X).
        """,
    )
    triggers = sorted(s.trigger_name for s in compiled.strands)
    assert triggers == ["a", "b"]


def test_self_join_gets_strand_per_occurrence(store):
    compiled = plan(
        store,
        """
        materialize(edge, 10, 10, keys(1,2,3)).
        r out@N(A, C) :- edge@N(A, B), edge@N(B, C).
        """,
    )
    assert len(compiled.strands) == 2
    assert all(s.trigger_name == "edge" for s in compiled.strands)


def test_two_events_rejected(store):
    with pytest.raises(PlannerError):
        plan(store, "r out@N(X) :- e1@N(X), e2@N(X).")


def test_conditions_run_as_soon_as_bound(store):
    compiled = plan(
        store,
        """
        materialize(t, 10, 10, keys(1)).
        r out@N(X, Y) :- e@N(X), X > 1, t@N(Y), Y > X.
        """,
    )
    ops = compiled.strands[0].ops
    # First the X > 1 filter (X is bound by the trigger), then the join,
    # then the Y > X filter.
    assert isinstance(ops[0], SelectElement)
    assert isinstance(ops[1], JoinElement)
    assert isinstance(ops[2], SelectElement)


def test_join_stages_numbered_in_order(store):
    compiled = plan(
        store,
        """
        materialize(a, 10, 10, keys(1)).
        materialize(b, 10, 10, keys(1)).
        r out@N(X, Y) :- e@N(), a@N(X), b@N(Y).
        """,
    )
    joins = [op for op in compiled.strands[0].ops if isinstance(op, JoinElement)]
    assert [j.stage for j in joins] == [1, 2]
    assert compiled.strands[0].num_stages == 2


def test_no_join_strand_has_one_stage(store):
    compiled = plan(store, "r out@N(X) :- e@N(X).")
    assert compiled.strands[0].num_stages == 1


def test_periodic_spec_extracted(store):
    compiled = plan(store, "r out@N(E) :- periodic@N(E, 5).")
    strand = compiled.strands[0]
    assert strand.periodic == ("E", 5.0)


def test_periodic_unbound_symbolic_period_rejected(store):
    with pytest.raises(PlannerError):
        plan(store, "r out@N(E) :- periodic@N(E, tUnbound).")


def test_periodic_nonpositive_period_rejected(store):
    with pytest.raises(PlannerError):
        plan(store, "r out@N(E) :- periodic@N(E, 0).")


def test_joining_nonexistent_table_rejected(store):
    # e is the event; ghost is neither an event (a rule can have only
    # one) nor a table.
    with pytest.raises(PlannerError):
        plan(
            store,
            """
            materialize(t, 10, 10, keys(1)).
            r out@N(X) :- e@N(X), t@N(X), ghost@N(X).
            """,
        )


def test_aggregate_rule_with_event_trigger_binds_args(store):
    compiled = plan(
        store,
        """
        materialize(t, 10, 10, keys(1,2)).
        r cnt@N(K, count<*>) :- e@N(K), t@N(K, V).
        """,
    )
    strand = compiled.strands[0]
    assert strand.aggregate is not None
    assert strand.match.bind_args is True


def test_aggregate_rule_with_table_trigger_rescans(store):
    compiled = plan(
        store,
        """
        materialize(t, 10, 10, keys(1,2)).
        r cnt@N(count<*>) :- t@N(V).
        """,
    )
    strand = compiled.strands[0]
    # Activation-only match; the trigger table re-enters as a join.
    assert strand.match.bind_args is False
    assert any(
        isinstance(op, JoinElement) and op.pattern.name == "t"
        for op in strand.ops
    )


def test_assign_element_ordering_respects_dependencies(store):
    compiled = plan(
        store,
        """
        materialize(t, 10, 10, keys(1)).
        r out@N(D) :- e@N(K), t@N(V), D := K - V.
        """,
    )
    ops = compiled.strands[0].ops
    assert isinstance(ops[0], JoinElement)
    assert isinstance(ops[1], AssignElement)


def test_strand_ids_are_unique(store):
    compiled = plan(
        store,
        """
        materialize(a, 10, 10, keys(1)).
        materialize(b, 10, 10, keys(1)).
        r out@N(X) :- a@N(X), b@N(X).
        """,
    )
    ids = [s.strand_id for s in compiled.strands]
    assert len(set(ids)) == len(ids)


def test_elements_listing_for_introspection(store):
    compiled = plan(
        store,
        """
        materialize(t, 10, 10, keys(1)).
        r out@N(X) :- e@N(X), t@N(X), X > 0.
        """,
    )
    kinds = [e.kind for e in compiled.strands[0].elements()]
    # X is bound by the trigger, so the selection runs before the join
    # (the planner's eager-filter optimization).
    assert kinds == ["match", "select", "join", "project"]


def test_join_uses_index_over_bound_columns(store):
    compiled = plan(
        store,
        """
        materialize(t, 10, 10, keys(1)).
        r out@N(X, Y) :- e@N(X), t@N(X, Y).
        """,
    )
    join = next(
        op for op in compiled.strands[0].ops if isinstance(op, JoinElement)
    )
    # N and X are bound when the join runs; Y is free.
    assert join.uses_index
    assert join.index.positions == (0, 1)


def test_join_with_constant_column_indexes_it(store):
    compiled = plan(
        store,
        """
        materialize(t, 10, 10, keys(1)).
        r out@N(Y) :- e@N(X), t@N(Y, 7).
        """,
    )
    join = next(
        op for op in compiled.strands[0].ops if isinstance(op, JoinElement)
    )
    assert join.uses_index
    assert join.index.positions == (0, 2)


def test_wildcards_do_not_contribute_index_columns(store):
    compiled = plan(
        store,
        """
        materialize(t, 10, 10, keys(1)).
        r out@N(X) :- e@N(X), t@N(_, _, X).
        """,
    )
    join = next(
        op for op in compiled.strands[0].ops if isinstance(op, JoinElement)
    )
    # The location column and X are bound; the wildcards are not.
    assert join.uses_index
    assert join.index.positions == (0, 3)


def test_scan_joins_context_disables_indexes(store):
    from repro.runtime.planner import scan_joins

    src = """
    materialize(t, 10, 10, keys(1)).
    r out@N(X, Y) :- e@N(X), t@N(X, Y).
    """
    with scan_joins():
        compiled = plan(store, src)
    join = next(
        op for op in compiled.strands[0].ops if isinstance(op, JoinElement)
    )
    assert not join.uses_index


def test_use_indexes_flag_overrides_global(store):
    planner = Planner(store, use_indexes=False)
    compiled = planner.plan(
        Program.compile(
            """
            materialize(t, 10, 10, keys(1)).
            r out@N(X, Y) :- e@N(X), t@N(X, Y).
            """
        )
    )
    join = next(
        op for op in compiled.strands[0].ops if isinstance(op, JoinElement)
    )
    assert not join.uses_index


def test_equivalent_joins_share_one_index(store):
    compiled = plan(
        store,
        """
        materialize(t, 10, 10, keys(1)).
        r1 out@N(X, Y) :- e1@N(X), t@N(X, Y).
        r2 out2@N(X, Y) :- e2@N(X), t@N(X, Y).
        """,
    )
    joins = [
        op
        for s in compiled.strands
        for op in s.ops
        if isinstance(op, JoinElement)
    ]
    assert len(joins) == 2
    assert joins[0].index is joins[1].index
    assert len(store.get("t").indexes()) == 1
