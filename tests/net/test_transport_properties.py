"""Hypothesis properties of the reliable transport state machine.

The invariants the fault campaigns lean on:

- the app layer never sees a payload twice, and never out of order,
  whatever combination of loss, duplication, and reordering the fabric
  applies (delivery is a prefix-respecting subsequence of the send
  order; with a lossless fabric it is the whole sequence);
- the ack/retransmit/backoff machinery is deterministic per seed — two
  networks driven identically produce identical counter sets and
  delivery traces.
"""

from __future__ import annotations

from typing import List, Tuple

from hypothesis import given, settings, strategies as st

from repro.net.network import Network, ReliableConfig
from repro.net.topology import ConstantLatency, UniformLatency
from repro.sim.simulator import Simulator

NODES = ["a", "b", "c"]

sends = st.lists(
    st.tuples(
        st.sampled_from(NODES), st.sampled_from(NODES)
    ).filter(lambda pair: pair[0] != pair[1]),
    min_size=1,
    max_size=60,
)


def run_network(
    send_list: List[Tuple[str, str]],
    seed: int,
    loss: float = 0.0,
    reorder: float = 0.0,
    duplicate: float = 0.0,
    jittered_latency: bool = False,
):
    sim = Simulator(seed=seed)
    latency = (
        UniformLatency(sim.random, 0.01, 0.15)
        if jittered_latency
        else ConstantLatency(0.01)
    )
    net = Network(
        sim,
        latency,
        loss_rate=loss,
        transport="reliable",
        reliable=ReliableConfig(rto=0.2, max_retries=5, jitter=0.05),
        reorder_rate=reorder,
        duplicate_rate=duplicate,
        reorder_window=0.2,
    )
    received = {n: [] for n in NODES}
    for node in NODES:
        net.attach(node, lambda m, _n=node: received[_n].append(m.body))
    for i, (src, dst) in enumerate(send_list):
        net.send(src, dst, (src, dst, i))
    sim.run_until(600.0)
    return net, received


def per_channel(send_list):
    chans = {}
    for i, (src, dst) in enumerate(send_list):
        chans.setdefault((src, dst), []).append((src, dst, i))
    return chans


def is_ordered_subsequence(sub, full):
    it = iter(full)
    return all(item in it for item in sub)


@given(send_list=sends, seed=st.integers(0, 2**16))
@settings(max_examples=30, deadline=None)
def test_lossless_fabric_delivers_everything_in_fifo_order(send_list, seed):
    _, received = run_network(send_list, seed, jittered_latency=True)
    expected = per_channel(send_list)
    for node in NODES:
        for (src, dst), sent in expected.items():
            if dst != node:
                continue
            got = [p for p in received[node] if p[0] == src]
            assert got == sent


@given(
    send_list=sends,
    seed=st.integers(0, 2**16),
    reorder=st.floats(0.0, 0.9),
    duplicate=st.floats(0.0, 0.9),
)
@settings(max_examples=30, deadline=None)
def test_reorder_and_duplication_preserve_exactly_once_fifo(
    send_list, seed, reorder, duplicate
):
    _, received = run_network(
        send_list,
        seed,
        reorder=reorder,
        duplicate=duplicate,
        jittered_latency=True,
    )
    expected = per_channel(send_list)
    for (src, dst), sent in expected.items():
        got = [p for p in received[dst] if p[0] == src]
        # No loss: duplication and reordering alone must be fully
        # masked — every payload exactly once, in send order.
        assert got == sent


@given(
    send_list=sends,
    seed=st.integers(0, 2**16),
    loss=st.floats(0.0, 0.6),
    reorder=st.floats(0.0, 0.5),
    duplicate=st.floats(0.0, 0.5),
)
@settings(max_examples=30, deadline=None)
def test_lossy_fabric_never_duplicates_or_reorders_deliveries(
    send_list, seed, loss, reorder, duplicate
):
    _, received = run_network(
        send_list, seed, loss=loss, reorder=reorder, duplicate=duplicate
    )
    expected = per_channel(send_list)
    for (src, dst), sent in expected.items():
        got = [p for p in received[dst] if p[0] == src]
        assert len(set(got)) == len(got), "payload delivered twice"
        assert is_ordered_subsequence(got, sent), "FIFO violated"


@given(
    send_list=sends,
    seed=st.integers(0, 2**16),
    loss=st.floats(0.0, 0.5),
)
@settings(max_examples=20, deadline=None)
def test_backoff_and_delivery_trace_deterministic_per_seed(
    send_list, seed, loss
):
    net1, received1 = run_network(send_list, seed, loss=loss)
    net2, received2 = run_network(send_list, seed, loss=loss)
    assert received1 == received2
    s1, s2 = net1.stats, net2.stats
    assert s1.messages_retransmitted == s2.messages_retransmitted
    assert s1.messages_delivered == s2.messages_delivered
    assert s1.drop_reasons == s2.drop_reasons
    assert s1.send_failures == s2.send_failures
    assert s1.acks_sent == s2.acks_sent
