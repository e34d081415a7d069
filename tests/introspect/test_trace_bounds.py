"""Trace-state bounding: the paper's resource-control optimizations."""

import pytest

from repro.introspect import Tracer


def test_rule_exec_cap_enforced(make_node):
    node = make_node("n:1")
    tracer = Tracer(node, lifetime=1000.0, max_entries=50)
    node.install_source("r1 out@N(X) :- evt@N(X).")
    for i in range(500):
        node.inject("evt", ("n:1", i))
    assert len(node.query("ruleExec")) <= 50


def test_evicted_rows_release_tuple_memos(make_node):
    node = make_node("n:1")
    tracer = Tracer(node, lifetime=1000.0, max_entries=50)
    node.install_source("r1 out@N(X) :- evt@N(X).")
    for i in range(500):
        node.inject("evt", ("n:1", i))
    # Retained memos are bounded by what live rows reference (each row
    # references two tuples) plus unreferenced arrivals pending expiry.
    referenced = set()
    for row in node.query("ruleExec"):
        referenced.add(row.values[2])
        referenced.add(row.values[3])
    for tid in referenced:
        assert tracer.registry.lookup(tid) is not None


def test_trace_state_constant_under_steady_load(sim, make_node):
    node = make_node("n:1")
    Tracer(node, lifetime=20.0, max_entries=5000)
    node.install_source(
        """
        r drive@N(E) :- periodic@N(E, 0.5).
        r2 out@N(E) :- drive@N(E).
        """
    )
    sim.run_for(40.0)
    mid = node.live_tuples()
    sim.run_for(120.0)
    late = node.live_tuples()
    assert late <= mid * 1.25  # plateau, not growth


def test_tracer_attach_points(make_node):
    node = make_node("n:1")
    assert node.hooks is None and node.registry is None
    tracer = Tracer(node)
    assert node.hooks is tracer
    assert node.registry is tracer.registry
