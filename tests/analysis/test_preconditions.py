"""§3.4 forensics: tracing back the preconditions of an execution."""

import pytest

from repro.analysis import trace_back
from repro.analysis.causality import dependencies
from repro.introspect import Tracer


@pytest.fixture
def traced_node(make_node):
    node = make_node("n:1")
    Tracer(node)
    node.install_source(
        """
        materialize(route, 100, 10, keys(1,2)).
        r1 out@N(X, Via) :- query@N(X), route@N(Via).
        """
    )
    return node


def test_preconditions_recorded_in_chain(traced_node):
    node = traced_node
    node.inject("route", ("n:1", "gateway-a"))
    outs = node.collect("out")
    node.inject("query", ("n:1", "q1"))
    chain = trace_back({"n:1": node}, "n:1", outs[0])
    assert len(chain) == 1
    (link,) = chain
    assert len(link.preconditions) == 1
    assert link.preconditions[0].contents.values[1] == "gateway-a"


def test_dependencies_filter_by_name(traced_node):
    node = traced_node
    node.inject("route", ("n:1", "gateway-a"))
    outs = node.collect("out")
    node.inject("query", ("n:1", "q1"))
    chain = trace_back({"n:1": node}, "n:1", outs[0])
    routes = dependencies(chain, "route")
    assert [r.values[1] for r in routes] == ["gateway-a"]
    assert dependencies(chain, "other") == []


def test_lookup_chain_exposes_routing_dependencies():
    """The paper's §3.4 example: which succ/finger rows did a lookup's
    execution depend on?  Those are the rows an oscillation report
    would incriminate."""
    from repro.chord import ChordNetwork
    from repro.overlog.types import NodeID

    net = ChordNetwork(num_nodes=6, seed=5, tracing=True)
    net.start()
    assert net.wait_stable(max_time=200.0)
    net.run_for(60.0)
    src = net.live_addresses()[0]
    result = net.lookup(src, NodeID(0x5151))
    assert result is not None
    nodes = {a: net.node(a) for a in net.addresses}
    chain = trace_back(nodes, src, result)
    assert chain
    finger_rows = dependencies(chain, "finger")
    best_rows = dependencies(chain, "bestSucc")
    # A routed lookup consulted somebody's routing state.
    assert finger_rows or best_rows
    for row in finger_rows:
        assert row.name == "finger"


def test_a_link_lists_only_its_own_firings_preconditions(make_node, sim):
    """Rule p1 has two strands (triggered by ``link`` joining ``path``,
    and by ``path`` joining ``link``) and both derive the same tuple.
    The spine takes the later firing, and that firing's precondition is
    the row *it* joined — not the other strand's, which is this one's
    trigger."""
    node = make_node("b")
    Tracer(node)
    node.install_source(
        """
        materialize(link, 100, 20, keys(1,2)).
        materialize(path, 100, 100, keys(1,2,3)).
        p0 path@A(B, [A, B], W) :- link@A(B, W).
        p1 far@A(C, W + Y) :- link@A(B, W), path@A(C, P, Y).
        """
    )
    fars = node.collect("far")
    node.inject("link", ("b", "c", 2))
    sim.run_for(1.0)
    assert len(fars) == 2 and fars[0] == fars[1]
    chain = trace_back({"b": node}, "b", fars[0])
    assert [link.rule for link in chain] == ["p1", "p0"]
    assert chain[0].cause.name == "path" and chain[1].cause.name == "link"
    assert [p.contents.name for p in chain[0].preconditions] == ["link"]
    assert chain[1].preconditions == []
