"""Differential transport tests: lossy-reliable ≡ lossless-UDP.

The reliable transport's contract is that the application cannot tell
it apart from a perfect network: the paper's bundled programs must
reach the *same final table states* whether they run over UDP with
zero loss or over the reliable transport on a fabric that drops,
duplicates, and reorders frames.  Any divergence is a transport bug
(lost, duplicated, or reordered application delivery).
"""

from __future__ import annotations

import pytest

from repro.chord.harness import ChordNetwork
from repro.core.system import System
from repro.gossip.harness import GossipNetwork
from repro.net.network import ReliableConfig

#: Fault mix for the adversarial runs.  Loss is kept well inside the
#: retry budget (p_fail = loss ** (max_retries + 1) ≈ 2e-6 per message)
#: so a sender-visible drop is effectively impossible in-test.
LOSSY = dict(
    loss_rate=0.15,
    reorder_rate=0.15,
    duplicate_rate=0.15,
    reliable=ReliableConfig(rto=0.2, max_retries=6, jitter=0.05),
)


# ----------------------------------------------------------------------
# Figure 1: the all-routes path-vector program


def run_allroutes(transport: str, reorder_rate=0.0, **net_kwargs):
    system = System(seed=3, transport=transport, **net_kwargs)
    system.network.set_reorder_rate(reorder_rate)
    source = """
    materialize(link, 100, 20, keys(1,2)).
    materialize(path, 100, 100, keys(1,2,3)).
    p0 path@A(B, [A, B], W) :- link@A(B, W).
    p1 path(B, C, [B, A] + P, W + Y) :- link(A, B, W), path(A, C, P, Y).
    """
    for name in ("a", "b", "c", "d"):
        system.add_node(name)
    system.install_source(source, name="allroutes")
    # Chain topology: the rule has no cycle check, so the link graph
    # must be acyclic for the derivation to terminate.
    system.node("a").inject("link", ("a", "b", 1))
    system.node("b").inject("link", ("b", "c", 2))
    system.node("c").inject("link", ("c", "d", 3))
    system.run_for(60.0)
    return {
        name: {tuple(t.values) for t in system.node(name).query("path")}
        for name in ("a", "b", "c", "d")
    }


def test_allroutes_tables_identical_udp_vs_lossy_reliable():
    baseline = run_allroutes("udp")
    adversarial = run_allroutes("reliable", **LOSSY)
    assert any(baseline.values()), "baseline computed no paths"
    assert adversarial == baseline


# ----------------------------------------------------------------------
# Chord: ring convergence


def run_chord(transport: str, reorder_rate=0.0, **net_kwargs):
    net = ChordNetwork(num_nodes=8, seed=5, transport=transport, **net_kwargs)
    net.system.network.set_reorder_rate(reorder_rate)
    net.start()
    assert net.wait_stable(max_time=400.0), (
        f"{transport} ring never stabilized: {net.ring_errors()}"
    )
    # Successor correctness (what wait_stable checks) settles before
    # predecessor pointers do; give both runs the same settle window.
    net.run_for(60.0)
    return (
        {a: net.best_succ_of(a) for a in net.live_addresses()},
        {a: net.pred_of(a) for a in net.live_addresses()},
    )


@pytest.mark.slow
def test_chord_ring_state_identical_udp_vs_lossy_reliable():
    succ_udp, pred_udp = run_chord("udp")
    succ_rel, pred_rel = run_chord("reliable", **LOSSY)
    assert succ_rel == succ_udp
    assert pred_rel == pred_udp


# ----------------------------------------------------------------------
# Gossip: membership mesh and broadcast coverage


def run_gossip(transport: str, reorder_rate=0.0, **net_kwargs):
    net = GossipNetwork(num_nodes=8, seed=7, transport=transport, **net_kwargs)
    net.system.network.set_reorder_rate(reorder_rate)
    net.start()
    net.run_for(60.0)
    net.publish(net.addresses[0], 42, "payload")
    net.run_for(60.0)
    return net


def test_gossip_coverage_identical_udp_vs_lossy_reliable():
    baseline = run_gossip("udp")
    adversarial = run_gossip("reliable", **LOSSY)
    assert baseline.fully_meshed()
    assert adversarial.fully_meshed()
    assert adversarial.coverage(42) == baseline.coverage(42) == set(
        baseline.addresses
    )


def test_lossy_reliable_run_actually_exercised_the_fault_path():
    net = run_gossip("reliable", **LOSSY)
    stats = net.system.network.stats
    assert stats.messages_retransmitted > 0
    assert stats.duplicates_suppressed > 0
    # Per-attempt losses are absorbed by retransmission, never surfaced
    # as drops; only retry exhaustion would be (and must not happen).
    assert stats.send_failures == 0
    assert stats.messages_dropped == 0
