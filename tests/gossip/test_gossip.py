"""The epidemic overlay — and the monitoring toolkit applied to it.

§3.4's generality claim, executed: the same introspection, tracing,
forensics, console and watchpoint machinery built for Chord operates
unchanged on a completely different overlay.
"""

import pytest

from repro.analysis import trace_back
from repro.gossip import GossipNetwork, GossipParams, gossip_program
from repro.net.topology import JitteredLatency
from repro.overload.controller import OverloadConfig
from repro.store import (
    ForensicStore,
    StoreConfig,
    StoreProvider,
    backward_slice,
    format as fmt,
)
from repro.sim.rand import SimRandom


@pytest.fixture(scope="module")
def meshed():
    net = GossipNetwork(num_nodes=8, seed=2, tracing=True)
    net.start()
    net.run_for(30.0)
    return net


def test_program_compiles():
    program = gossip_program()
    assert {m.name for m in program.materializations} == {
        "self",
        "member",
        "heard",
        "seenMsg",
    }


def test_membership_densifies_from_sparse_contacts(meshed):
    assert meshed.fully_meshed()


def test_membership_is_soft_state():
    """A crashed node ages out of every view within a few TTLs."""
    net = GossipNetwork(num_nodes=6, seed=3)
    net.start()
    net.run_for(30.0)
    victim = net.addresses[2]
    net.system.crash(victim)
    net.run_for(3 * GossipParams().member_ttl)
    for address, view in net.membership_views().items():
        assert victim not in view, address


def test_stale_share_bug_recycles_dead_members():
    """The buggy variant (sharing without first-hand evidence) is this
    overlay's §3.1.3 pathology: the dead member circulates through the
    mesh faster than TTLs can expire it, so views never forget."""
    net = GossipNetwork(num_nodes=6, seed=3, stale_share_bug=True)
    net.start()
    net.run_for(30.0)
    victim = net.addresses[2]
    net.system.crash(victim)
    net.run_for(6 * GossipParams().member_ttl)
    stale_views = [
        address
        for address, view in net.membership_views().items()
        if victim in view
    ]
    assert stale_views  # the lie persists somewhere, indefinitely


def test_broadcast_reaches_everyone(meshed):
    meshed.publish(meshed.addresses[0], 500, "payload")
    meshed.run_for(5.0)
    assert meshed.coverage(500) == set(meshed.addresses)


def test_duplicate_suppression(meshed):
    """Each node delivers a message exactly once, despite the flood."""
    deliveries = meshed.system.collect("deliver")
    meshed.publish(meshed.addresses[1], 501, "once")
    meshed.run_for(5.0)
    delivered = [t for t in deliveries if t.values[1] == 501]
    assert len(delivered) == len(meshed.addresses)
    assert len({t.values[0] for t in delivered}) == len(meshed.addresses)


def test_duplicates_are_observable(meshed):
    """The flood does produce redundant arrivals — surfaced as
    dupDelivery events for redundancy monitoring."""
    dups = meshed.system.collect("dupDelivery")
    meshed.publish(meshed.addresses[2], 502, "noisy")
    meshed.run_for(5.0)
    assert len(dups) > 0


def test_provenance_of_a_delivery(meshed):
    """trace_back reconstructs the dissemination path across nodes —
    the same forensics used for Chord lookups, unchanged."""
    meshed.publish(meshed.addresses[0], 503, "traced")
    meshed.run_for(5.0)
    target = meshed.addresses[5]
    node = meshed.node(target)
    (seen,) = [t for t in node.query("seenMsg") if t.values[1] == 503]
    nodes = {a: meshed.node(a) for a in meshed.addresses}
    chain = trace_back(nodes, target, seen)
    rules = [link.rule for link in chain]
    assert rules[-1] == "b0"              # ends at the publish
    assert "b6" in rules                  # crossed at least one forward
    assert any(link.crossed_network for link in chain)
    origins = {link.node for link in chain}
    assert meshed.addresses[0] in origins  # the publisher


def test_system_options_reach_the_gossip_ring(tmp_path):
    """The harness forwards ``System`` options it does not declare: a
    traced ring with small trace rings and overload control spills into
    a store, and a delivery slices back to its publish from disk."""
    net = GossipNetwork(
        num_nodes=5,
        seed=2,
        tracing=True,
        store=StoreConfig(directory=str(tmp_path / "store")),
        overload=OverloadConfig(),
        trace_entries=50,
    )
    assert net.node(net.addresses[0]).overload is not None
    net.start()
    net.run_for(30.0)
    net.publish(net.addresses[0], 7, "stored")
    net.run_for(5.0)
    target = net.addresses[-1]
    (seen,) = net.node(target).query("seenMsg")
    net.system.close_store()

    store = ForensicStore.open(str(tmp_path / "store"))
    assert store.ring_rotations  # memory alone no longer holds the run
    tid = store.tid_of(target, fmt.tuple_payload(seen))
    result = backward_slice(StoreProvider(store), target, tid)
    rules = {link["r"] for link in result.links}
    assert "b0" in rules and "b6" in rules  # the publish, then a forward
    assert net.addresses[0] in {link["n"] for link in result.links}

    with pytest.raises(TypeError, match="trace_entires"):
        GossipNetwork(num_nodes=2, trace_entires=200)


def test_a_latency_model_reaches_the_gossip_network_as_given():
    model = JitteredLatency(SimRandom(0), 0.01, 0.005)
    net = GossipNetwork(num_nodes=2, latency=model)
    assert net.system.network.latency_model is model


def test_hop_counts_bounded_by_graph(meshed):
    """With full membership, the flood reaches everyone in one hop from
    the publisher (direct forward), so recorded hops are small."""
    meshed.publish(meshed.addresses[3], 504, "hops")
    meshed.run_for(5.0)
    hops = []
    for address in meshed.addresses:
        for row in meshed.node(address).query("seenMsg"):
            if row.values[1] == 504:
                hops.append(row.values[3])
    assert max(hops) <= 2


def test_console_coverage_query(meshed):
    """The operator console works on this overlay too."""
    from repro.core.console import QueryConsole

    meshed.publish(meshed.addresses[0], 505, "covered")
    meshed.run_for(5.0)
    console = QueryConsole(meshed.system)
    counts = console.counts("member")
    assert all(count >= 7 for count in counts.values())


def test_partition_halves_coverage_then_heals():
    net = GossipNetwork(num_nodes=6, seed=4)
    net.start()
    net.run_for(30.0)
    # Cut the population into {0,1,2} and {3,4,5}.
    left = net.addresses[:3]
    right = net.addresses[3:]
    for a in left:
        for b in right:
            net.system.network.partition(a, b)
    net.run_for(GossipParams().member_ttl + 10.0)
    net.publish(left[0], 600, "partitioned")
    net.run_for(5.0)
    assert net.coverage(600) == set(left)
    # Heal the network.  If the halves fully forgot each other (member
    # TTLs elapsed) the epidemic has no rendezvous point, so reintroduce
    # one bridge contact — the operator's re-bootstrap.
    for a in left:
        for b in right:
            net.system.network.heal(a, b)
    net.node(left[0]).inject("member", (left[0], right[0]))
    net.run_for(30.0)
    assert net.fully_meshed()
    net.publish(left[0], 601, "healed")
    net.run_for(5.0)
    assert net.coverage(601) == set(net.addresses)
