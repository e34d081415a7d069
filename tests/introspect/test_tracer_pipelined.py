"""Pipelined execution tracing (§2.1.2 / Figure 3).

These tests drive the tracer's hook API directly with interleaved
signals from two in-flight executions of one two-stage rule strand —
the situation of Figure 3, where one event is already processing
matches in the second join while a subsequent event has started on the
first join — and assert the reconstructed ruleExec rows attribute
preconditions to the right execution.
"""

import pytest

from repro.introspect import Tracer
from repro.runtime.tuples import Tuple


@pytest.fixture
def setup(make_node):
    node = make_node("n:1")
    tracer = Tracer(node, lifetime=100.0)
    node.install_source(
        """
        materialize(prec1, 100, 10, keys(1,2,3)).
        materialize(prec2, 100, 10, keys(1,2,3)).
        r2 head@Z(Y) :- event@N(X), prec1@N(X, Y), prec2@N(Y, Z).
        """
    )
    strand = [s for s in node.strands if s.rule_id == "r2"][0]
    return node, tracer, strand


def rows_for_effect(node, effect_values):
    effect = Tuple("head", effect_values)
    tracer_rows = node.query("ruleExec")
    node_registry = node.registry
    eid = node_registry.id_of(effect)
    return [r for r in tracer_rows if r.values[3] == eid]


def test_figure3_interleaving(setup):
    node, tracer, strand = setup
    reg = tracer.registry

    e1 = Tuple("event", ("n:1", "x1"))
    e2 = Tuple("event", ("n:1", "x2"))
    a1 = Tuple("prec1", ("n:1", "x1", "y1"))
    b1 = Tuple("prec2", ("n:1", "y1", "z1"))
    a2 = Tuple("prec1", ("n:1", "x2", "y2"))
    out1 = Tuple("head", ("z1", "y1"))

    # Execution 1 enters and advances into stage 2.
    tracer.input_observed(strand, e1, 1.0)
    tracer.precondition_observed(strand, 1, a1, 1.1)
    tracer.stage_completed(strand, 1)     # join1 done for e1
    # Execution 2 enters stage 1 while execution 1 sits in stage 2.
    tracer.input_observed(strand, e2, 1.2)
    tracer.precondition_observed(strand, 2, b1, 1.3)  # belongs to exec 1
    tracer.precondition_observed(strand, 1, a2, 1.4)  # belongs to exec 2
    tracer.output_observed(strand, out1, 1.5)         # from exec 1

    rows = rows_for_effect(node, ("z1", "y1"))
    assert len(rows) == 3
    causes = {r.values[2] for r in rows}
    # Execution 1's record: event e1 + preconditions a1, b1 — never a2/e2.
    assert causes == {reg.id_of(e1), reg.id_of(a1), reg.id_of(b1)}


def test_record_retires_after_all_stages(setup):
    node, tracer, strand = setup
    e1 = Tuple("event", ("n:1", "x1"))
    tracer.input_observed(strand, e1, 1.0)
    assert tracer.pending_records(strand.strand_id) == 1
    tracer.stage_completed(strand, 1)
    tracer.stage_completed(strand, 2)
    assert tracer.pending_records(strand.strand_id) == 0


def test_record_reuse_after_retirement(setup):
    node, tracer, strand = setup
    for i in range(4):
        event = Tuple("event", ("n:1", f"x{i}"))
        tracer.input_observed(strand, event, float(i))
        tracer.stage_completed(strand, 1)
        tracer.stage_completed(strand, 2)
    # Sequential executions never need more than one record.
    assert tracer.pending_records(strand.strand_id) <= 1


def test_flush_right_of_new_precondition(setup):
    """§2.1.1: a precondition observation flushes stale fields to its
    right, so outputs after backtracking cite the fresh preconditions."""
    node, tracer, strand = setup
    reg = tracer.registry
    e1 = Tuple("event", ("n:1", "x1"))
    a1 = Tuple("prec1", ("n:1", "x1", "y1"))
    b1 = Tuple("prec2", ("n:1", "y1", "z1"))
    a2 = Tuple("prec1", ("n:1", "x1", "y2"))
    b2 = Tuple("prec2", ("n:1", "y2", "z2"))

    tracer.input_observed(strand, e1, 1.0)
    tracer.precondition_observed(strand, 1, a1, 1.1)
    tracer.precondition_observed(strand, 2, b1, 1.2)
    tracer.output_observed(strand, Tuple("head", ("z1", "y1")), 1.3)
    # Backtrack: join1 yields a2; the b1 field must be flushed.
    tracer.precondition_observed(strand, 1, a2, 1.4)
    tracer.precondition_observed(strand, 2, b2, 1.5)
    tracer.output_observed(strand, Tuple("head", ("z2", "y2")), 1.6)

    rows = rows_for_effect(node, ("z2", "y2"))
    causes = {r.values[2] for r in rows}
    assert reg.id_of(b1) not in causes
    assert causes == {reg.id_of(e1), reg.id_of(a2), reg.id_of(b2)}


def test_new_input_clears_record(setup):
    node, tracer, strand = setup
    reg = tracer.registry
    e1 = Tuple("event", ("n:1", "x1"))
    a1 = Tuple("prec1", ("n:1", "x1", "y1"))
    e2 = Tuple("event", ("n:1", "x2"))
    a2 = Tuple("prec1", ("n:1", "x2", "y2"))
    b2 = Tuple("prec2", ("n:1", "y2", "z2"))

    tracer.input_observed(strand, e1, 1.0)
    tracer.precondition_observed(strand, 1, a1, 1.1)
    tracer.stage_completed(strand, 1)
    tracer.stage_completed(strand, 2)  # exec 1 retires without output
    tracer.input_observed(strand, e2, 2.0)
    tracer.precondition_observed(strand, 1, a2, 2.1)
    tracer.precondition_observed(strand, 2, b2, 2.2)
    tracer.output_observed(strand, Tuple("head", ("z2", "y2")), 2.3)

    rows = rows_for_effect(node, ("z2", "y2"))
    causes = {r.values[2] for r in rows}
    assert reg.id_of(e1) not in causes
    assert reg.id_of(a1) not in causes


def test_orphan_signals_are_ignored(setup):
    """Defensive: signals with no matching record must not crash."""
    node, tracer, strand = setup
    b = Tuple("prec2", ("n:1", "y", "z"))
    tracer.precondition_observed(strand, 2, b, 1.0)
    tracer.stage_completed(strand, 2)
    tracer.output_observed(strand, Tuple("head", ("z", "y")), 1.1)
    assert node.query("ruleExec") == []
