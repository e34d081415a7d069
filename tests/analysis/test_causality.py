import pytest

from repro.analysis import latency_breakdown, trace_back
from repro.introspect import Tracer
from repro.runtime.tuples import Tuple


@pytest.fixture
def traced_pair(sim, make_node):
    a = make_node("a:1")
    b = make_node("b:1")
    Tracer(a), Tracer(b)
    program = """
    r1 hop@Dst(X) :- start@N(Dst, X).
    r2 final@N(X) :- hop@N(X).
    """
    a.install_source(program)
    b.install_source(program)
    return a, b


def test_trace_back_crosses_network(sim, traced_pair):
    a, b = traced_pair
    finals = b.collect("final")
    a.inject("start", ("a:1", "b:1", 7))
    sim.run_for(1.0)
    chain = trace_back({"a:1": a, "b:1": b}, "b:1", finals[0])
    assert [link.rule for link in chain] == ["r2", "r1"]
    assert chain[0].node == "b:1"
    assert chain[1].node == "a:1"
    assert chain[1].crossed_network


def test_trace_back_of_injected_tuple_is_empty(traced_pair):
    a, _ = traced_pair
    chain = trace_back({"a:1": a}, "a:1", Tuple("start", ("a:1", "x", 1)))
    assert chain == []


def test_trace_back_without_tracing_is_empty(make_node):
    node = make_node("plain:1")
    chain = trace_back(
        {"plain:1": node}, "plain:1", Tuple("x", ("plain:1",))
    )
    assert chain == []


def test_latency_breakdown_attribution(sim, traced_pair):
    a, b = traced_pair
    finals = b.collect("final")
    a.inject("start", ("a:1", "b:1", 7))
    sim.run_for(1.0)
    chain = trace_back({"a:1": a, "b:1": b}, "b:1", finals[0])
    breakdown = latency_breakdown(chain)
    assert breakdown.hops == 2
    assert breakdown.net_time == pytest.approx(0.01, abs=1e-3)
    assert breakdown.rule_time > 0


def test_breakdown_with_observation_includes_final_gap(sim, traced_pair):
    a, b = traced_pair
    finals = b.collect("final")
    a.inject("start", ("a:1", "b:1", 7))
    sim.run_for(1.0)
    chain = trace_back({"a:1": a, "b:1": b}, "b:1", finals[0])
    base = latency_breakdown(chain)
    with_obs = latency_breakdown(chain, observed_at=chain[0].out_time + 0.5)
    assert with_obs.local_time == pytest.approx(base.local_time + 0.5)


def test_empty_chain_breakdown():
    breakdown = latency_breakdown([])
    assert breakdown.total == 0.0
    assert breakdown.hops == 0


def test_memoized_contents_available(sim, traced_pair):
    a, b = traced_pair
    finals = b.collect("final")
    a.inject("start", ("a:1", "b:1", 7))
    sim.run_for(1.0)
    chain = trace_back({"a:1": a, "b:1": b}, "b:1", finals[0])
    assert chain[0].effect.name == "final"
    assert chain[1].cause.name == "start"


def test_store_backed_chain_on_a_rotated_chord_ring(tmp_path):
    """Every Chord tuple carries a NodeID, which the store keeps as
    ``{"nodeid": [value, bits]}``: a store-backed walk gives back the
    tuples the live rings held."""
    from repro.chord import ChordNetwork
    from repro.overlog.types import NodeID
    from repro.store import StoreConfig

    def spine_key(link):
        return (
            link.node,
            link.rule,
            link.cause_id,
            link.effect_id,
            link.in_time,
            link.out_time,
            link.crossed_network,
        )

    net = ChordNetwork(
        num_nodes=6,
        seed=5,
        tracing=True,
        store=StoreConfig(directory=str(tmp_path / "store")),
        trace_entries=64,
        tuple_entries=256,
    )
    net.start()
    assert net.wait_stable(max_time=200.0)
    src = net.live_addresses()[0]
    result = net.lookup(src, NodeID(0x5151))
    assert result is not None
    nodes = {a: net.node(a) for a in net.addresses}
    live = trace_back(nodes, src, result)
    net.run_for(120.0)
    assert trace_back(nodes, src, result) == [], "rings kept the chain"

    chain = trace_back(nodes, src, result, store=net.system.store)
    assert [link.rule for link in chain][:4] == ["l1", "l3b", "l3", "l2"]
    assert chain[-1].rule == "l2" and chain[-1].node == src
    assert chain[-1].cause.name == "lookup"
    # The rotated chain is the live one: same links, same tuples.
    assert [spine_key(link) for link in chain] == [
        spine_key(link) for link in live
    ]
    for got, want in zip(chain, live):
        assert got.cause == want.cause
        assert got.effect == want.effect
        assert [p.contents for p in got.preconditions] == [
            p.contents for p in want.preconditions
        ]
    key = chain[0].effect.values[1]
    assert type(key) is NodeID and key == NodeID(0x5151)
    assert any(link.preconditions for link in chain)
    for link in chain:
        assert link.cause is not None and link.effect is not None
        for precondition in link.preconditions:
            assert precondition.contents is not None
