"""The store-vs-memory differential battery.

The acceptance property of the durable store: while the in-memory
introspection rings still hold an alarm's history, a store-backed
backward slice is **byte-identical** to the memory-backed one; and
after the rings rotate past the alarm's antecedents, the store-backed
slice *still* returns the same bytes — the verdict survives ring
rotation — while the memory-backed walk visibly degrades.

There is one walker, so the same battery pins its other entry point:
``trace_back`` is always the event spine read off ``backward_slice``'s
links and hops over the same source — memory, store, and memory over
store all agree while the rings hold the history; after rotation the
two store-backed walks still return phase A's chain and memory alone
degrades exactly as the memory slice does — and every ``Precondition``
it lists is a precondition link of that slice.

Runs the same two-node chain workload per seed (the second rule joins a
``cfg`` row, so firings have preconditions) with deliberately tiny
rings so phase B's injection storm rotates every ring past phase A's
alarm.
"""

from __future__ import annotations

import json
from collections import Counter

import pytest

from repro import codec
from repro.analysis import trace_back
from repro.core.system import System
from repro.sim.batch import ExecutionConfig
from repro.store import (
    Layered,
    MemoryProvider,
    StoreConfig,
    StoreProvider,
    backward_slice,
)
from repro.store.slicing import spine
from tests.runtime.reference_loop import reference

FAST_SEEDS = [0, 1, 2, 3, 4]
# The full sweep (nightly tier).
SWEEP_SEEDS = list(range(25))


def build(seed, tmp_path, execution=ExecutionConfig()):
    system = System(
        seed=seed,
        store=StoreConfig(
            directory=str(tmp_path / f"store{seed}"), segment_events=32
        ),
        trace_entries=48,
        tuple_entries=96,
        log_capacity=64,
        execution=execution,
    )
    a = system.add_node("a:1", tracing=True, logging=True)
    b = system.add_node("b:1", tracing=True, logging=True)
    a.install_source("r1 hop@Dst(X) :- start@N(Dst, X).")
    b.install_source(
        """
        materialize(cfg, infinity, 4, keys(1)).
        r2 final@N(X) :- hop@N(X), cfg@N(V).
        """
    )
    b.inject("cfg", ("b:1", "v1"))
    return system, a, b


def live_nodes(system):
    return {str(addr): node for addr, node in system.nodes.items()}


def providers(system):
    return MemoryProvider(live_nodes(system)), StoreProvider(system.store)


def spine_of(sliced):
    """The event spine read off a slice, stated independently of the
    walker: at each tuple the latest event link into it, else the hop
    recorded for it; the link after a hop crossed the network."""
    at = (sliced.node, sliced.tid)
    seen = {at}
    chain, crossed = [], False
    while True:
        events = [
            (l["to"], l["r"], l["c"], l["ti"])
            for l in sliced.links
            if (l["n"], l["e"]) == at and l["ev"]
        ]
        hops = [h for h in sliced.hops if (h["n"], h["i"]) == at]
        if events:
            out_t, rule, cause, in_t = max(events)
            chain.append((at[0], rule, cause, at[1], in_t, out_t, crossed))
            at, crossed = (at[0], cause), False
        elif hops:
            at, crossed = (hops[0]["s"], hops[0]["si"]), True
        else:
            return chain
        if at in seen:
            return chain
        seen.add(at)


def traced(system, alarm, tid, memory, store):
    """``trace_back`` over the chosen sources as the same key sequence,
    having checked each precondition against the slice over them."""
    chain = trace_back(
        live_nodes(system) if memory else {},
        "b:1",
        alarm,
        store=system.store if store else None,
    )
    layers = [p for p, on in zip(providers(system), (memory, store)) if on]
    sliced = backward_slice(Layered(*layers), "b:1", tid)
    supporting = {
        (l["n"], l["r"], l["e"], l["c"]) for l in sliced.links if not l["ev"]
    }
    for link in chain:
        for pre in link.preconditions:
            assert (
                link.node, link.rule, link.effect_id, pre.tuple_id
            ) in supporting
            assert pre.contents.name == "cfg"
    keys = [
        (
            link.node,
            link.rule,
            link.cause_id,
            link.effect_id,
            link.in_time,
            link.out_time,
            link.crossed_network,
        )
        for link in chain
    ]
    return keys, sliced, chain


class Counting:
    """A provider that counts the questions put to it."""

    def __init__(self, inner):
        self._inner = inner
        self.calls = Counter()

    def __getattr__(self, name):
        def counted(*args):
            self.calls[name] += 1
            return getattr(self._inner, name)(*args)

        return counted


def run_battery(seed, tmp_path, execution=ExecutionConfig()):
    system, a, b = build(seed, tmp_path, execution=execution)
    got = system.collect("final", on=["b:1"])

    # Phase A: a handful of chains; history fits in every ring.
    for i in range(5):
        a.inject("start", ("a:1", "b:1", i))
    system.run_for(2.0)
    assert len(got) == 5
    alarm = got[-1]
    # The tuple id must be captured while the registry still holds the
    # alarm: after rotation id_of would mint a fresh id.
    tid = b.registry.id_of(alarm)

    memory, store = providers(system)
    mem_a = backward_slice(memory, "b:1", tid)
    store_a = backward_slice(store, "b:1", tid)
    assert mem_a.to_json() == store_a.to_json(), (
        f"seed {seed}: store slice diverges from memory while history "
        f"is still in the rings"
    )
    assert mem_a.links, f"seed {seed}: empty slice — workload broken"
    assert mem_a.hops, f"seed {seed}: chain never crossed the network"

    # The same graph walked along its event spine only.
    chain_a, sliced, links = traced(system, alarm, tid, True, True)
    assert sliced.to_json() == mem_a.to_json()
    assert chain_a == spine_of(mem_a)
    assert [key[:2] for key in chain_a] == [("b:1", "r2"), ("a:1", "r1")]
    assert [key[6] for key in chain_a] == [False, True]
    assert [len(link.preconditions) for link in links] == [1, 0]
    assert traced(system, alarm, tid, True, False)[0] == chain_a
    assert traced(system, alarm, tid, False, True)[0] == chain_a
    # One edges_to per tuple the spine stands on — its links, its hops
    # and the leaf it ends at — never one per precondition.
    counted = [Counting(p) for p in (memory, store)]
    walked = spine(Layered(*counted), "b:1", tid, 100)
    steps = len(walked) + sum(crossed for _, _, crossed in walked) + 1
    assert [p.calls["edges_to"] for p in counted] == [steps, steps]

    # Phase B: storm enough chains to rotate every ring past phase A.
    for i in range(5, 80):
        a.inject("start", ("a:1", "b:1", i))
    system.run_for(2.0)
    assert system.ring_rotations, (
        f"seed {seed}: rings never rotated — phase B proves nothing"
    )
    assert any(ring == "ruleExec" for _, ring in system.ring_rotations), (
        f"seed {seed}: ruleExec ring kept the alarm's antecedents"
    )

    store_b = backward_slice(store, "b:1", tid)
    assert store_b.to_json() == store_a.to_json(), (
        f"seed {seed}: store slice changed after ring rotation"
    )
    mem_b = backward_slice(memory, "b:1", tid)
    assert len(mem_b.links) < len(json.loads(store_a.to_json())["links"]), (
        f"seed {seed}: memory kept the full chain — rings too big for "
        f"the battery to mean anything"
    )
    assert traced(system, alarm, tid, True, True)[0] == chain_a
    assert traced(system, alarm, tid, False, True)[0] == chain_a
    # Memory alone degrades exactly as the memory slice does — and to
    # nothing once the registry has forgotten the alarm itself.
    degraded = spine_of(mem_b) if memory.tid_of("b:1", alarm) == tid else []
    assert traced(system, alarm, tid, True, False)[0] == degraded != chain_a
    return system


@pytest.mark.parametrize("seed", FAST_SEEDS)
def test_store_slice_matches_memory_then_survives_rotation(seed, tmp_path):
    run_battery(seed, tmp_path)


@pytest.mark.parametrize("seed", [0, 3])
def test_battery_holds_under_tick_execution(seed, tmp_path):
    run_battery(seed, tmp_path, execution=ExecutionConfig(tick=0.001))


def test_battery_holds_on_the_reference_loop(tmp_path):
    """On the test-side per-event reference loop, which cuts a segment
    after any event that fills the buffer instead of at tick barriers,
    the battery holds and the store reads back byte-identical to the
    tick loop's."""
    with reference():
        ref = run_battery(0, tmp_path / "reference")
    tick = run_battery(0, tmp_path / "tick")
    assert ref.store.segments_written > tick.store.segments_written
    assert [codec.dumps(r) for r in ref.store.events()] == [
        codec.dumps(r) for r in tick.store.events()
    ]


def test_closed_store_returns_the_same_bytes_from_disk(tmp_path):
    system = run_battery(7, tmp_path)
    got_before = None
    store = system.store
    # Any tuple with persisted history slices identically pre/post close.
    node = store.nodes()[0]
    tids = [r["i"] for r in store.events(node=node, kind="tt")]
    probe = max(tids)
    before = backward_slice(StoreProvider(store), node, probe).to_json()
    system.close_store()
    from repro.store import ForensicStore

    reopened = ForensicStore.open(store.config.directory)
    after = backward_slice(StoreProvider(reopened), node, probe).to_json()
    assert before == after


@pytest.mark.slow
@pytest.mark.parametrize("seed", SWEEP_SEEDS)
def test_differential_sweep(seed, tmp_path):
    run_battery(seed, tmp_path)
