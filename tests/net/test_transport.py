"""Reliable transport mode: ack/retransmit/dedup/reorder behaviour."""

import pytest

from repro.errors import NetworkError
from repro.net.channel import ReliableChannel
from repro.net.network import Network, ReliableConfig
from repro.net.topology import ConstantLatency, UniformLatency
from repro.sim.simulator import Simulator


def build(seed=0, loss=0.0, latency=0.01, config=None, **kwargs):
    sim = Simulator(seed=seed)
    net = Network(
        sim,
        ConstantLatency(latency),
        loss_rate=loss,
        transport="reliable",
        reliable=config,
        **kwargs,
    )
    return sim, net


# ----------------------------------------------------------------------
# ReliableChannel state machine (no simulator)


def test_channel_sequences_are_monotone():
    ch = ReliableChannel("a", "b")
    assert [ch.open_send(i).seq for i in range(5)] == [1, 2, 3, 4, 5]
    assert len(ch.pending) == 5


def test_channel_ack_retires_pending():
    ch = ReliableChannel("a", "b")
    entry = ch.open_send("m")
    assert ch.ack(entry.seq) is entry
    assert ch.ack(entry.seq) is None  # stale ack
    assert not ch.pending


def test_channel_in_order_accept_delivers_immediately():
    ch = ReliableChannel("a", "b")
    assert ch.accept(1, "m1") == ["m1"]
    assert ch.accept(2, "m2") == ["m2"]
    assert not ch.gapped


def test_channel_reorder_buffering_restores_fifo():
    ch = ReliableChannel("a", "b")
    assert ch.accept(2, "m2") == []
    assert ch.accept(3, "m3") == []
    assert ch.gapped
    assert ch.accept(1, "m1") == ["m1", "m2", "m3"]
    assert not ch.gapped


def test_channel_duplicate_accepts_are_empty():
    ch = ReliableChannel("a", "b")
    assert ch.accept(1, "m1") == ["m1"]
    assert ch.accept(1, "m1") == []  # already delivered
    assert ch.accept(3, "m3") == []
    assert ch.accept(3, "m3") == []  # duplicate of a held frame
    assert ch.accept(2, "m2") == ["m2", "m3"]


def test_channel_gap_skip_advances_past_lost_frame():
    ch = ReliableChannel("a", "b")
    ch.accept(3, "m3")
    ch.accept(4, "m4")
    assert ch.skip_gap() == ["m3", "m4"]
    assert ch.next_deliver == 5


def test_channel_base_tracks_lowest_unresolved_seq():
    ch = ReliableChannel("a", "b")
    assert ch.base == 1  # empty window
    e1, e2, e3 = (ch.open_send(f"m{i}") for i in range(3))
    assert ch.base == 1
    ch.ack(e1.seq)
    assert ch.base == 2
    ch.give_up(e2.seq)
    ch.ack(e3.seq)
    assert ch.base == 4  # == next_seq again


def test_channel_advance_base_delivers_held_and_skips_dead():
    ch = ReliableChannel("a", "b")
    ch.accept(3, "m3")
    ch.accept(6, "m6")
    # Sender says everything below 5 is resolved: m3 delivers, the dead
    # gaps (1, 2, 4) are skipped, m6 stays held behind the live gap 5.
    assert ch.advance_base(5) == ["m3"]
    assert ch.next_deliver == 5
    assert ch.gapped
    assert ch.accept(5, "m5") == ["m5", "m6"]
    # Stale frames from skipped seqs are duplicates now.
    assert ch.accept(2, "m2") == []
    # A base at or below next_deliver is a no-op.
    assert ch.advance_base(1) == []


# ----------------------------------------------------------------------
# End-to-end over the network


def test_lossless_delivery_acks_and_clears_pending():
    sim, net = build()
    got = []
    net.attach("b", lambda m: got.append(m.body))
    for i in range(10):
        net.send("a", "b", i)
    sim.run_until(5.0)
    assert got == list(range(10))
    assert net.pending_reliable() == 0
    assert net.stats.messages_retransmitted == 0
    assert net.stats.acks_sent == 10


def test_lossy_link_is_masked_by_retransmission():
    sim, net = build(seed=7, loss=0.4)
    got = []
    net.attach("b", lambda m: got.append(m.body))
    for i in range(50):
        net.send("a", "b", i)
    sim.run_until(120.0)
    assert got == list(range(50))
    assert net.stats.messages_retransmitted > 0
    # App-level sends are counted once regardless of retransmissions.
    assert net.stats.messages_sent == 50


def test_duplicating_fabric_is_deduplicated():
    sim, net = build(seed=3, duplicate_rate=0.5)
    got = []
    net.attach("b", lambda m: got.append(m.body))
    for i in range(50):
        net.send("a", "b", i)
    sim.run_until(30.0)
    assert got == list(range(50))
    assert net.stats.messages_duplicated > 0
    assert net.stats.duplicates_suppressed > 0


def test_reordering_fabric_still_delivers_fifo():
    sim = Simulator(seed=5)
    net = Network(
        sim,
        UniformLatency(sim.random, 0.01, 0.2),
        transport="reliable",
        reorder_rate=0.5,
        reorder_window=0.3,
    )
    got = []
    net.attach("b", lambda m: got.append(m.body))
    for i in range(100):
        net.send("a", "b", i)
    sim.run_until(60.0)
    assert got == list(range(100))


def test_retry_exhaustion_is_sender_visible():
    config = ReliableConfig(rto=0.1, backoff=2.0, max_retries=2, jitter=0.0)
    sim, net = build(config=config)
    failures = []
    net.on_send_failure.append(lambda m: failures.append(m.body))
    net.send("a", "ghost", "lost")
    sim.run_until(10.0)
    assert failures == ["lost"]
    assert net.stats.send_failures == 1
    assert net.stats.per_node_failed["a"] == 1
    assert net.stats.drop_reasons == {"retries_exhausted": 1}
    assert net.pending_reliable() == 0


def test_partition_heal_inside_retry_horizon_recovers():
    config = ReliableConfig(rto=0.2, backoff=2.0, max_retries=6, jitter=0.0)
    sim, net = build(config=config)
    got = []
    net.attach("b", lambda m: got.append(m.body))
    net.partition("a", "b")
    net.send("a", "b", "patient")
    sim.run_until(1.0)
    assert got == []
    net.heal("a", "b")
    sim.run_until(10.0)
    assert got == ["patient"]
    assert net.stats.messages_retransmitted >= 1
    assert net.stats.send_failures == 0


def test_abandoned_sends_do_not_stall_the_channel():
    # First message dies permanently (partition outlives its retries).
    # Later sends carry an advanced base, so the receiver skips the
    # dead gap immediately instead of stalling out the hold timer —
    # a channel idle across a give-up must not delay resumed traffic
    # (this is what kept post-heal pings timing out in the fault
    # campaigns before frames carried the sender base).
    config = ReliableConfig(
        rto=0.1, backoff=1.5, max_retries=2, jitter=0.0, hold_timeout=60.0
    )
    sim, net = build(config=config)
    got = []
    net.attach("b", lambda m: got.append(m.body))
    net.partition("a", "b")
    net.send("a", "b", "doomed")
    sim.run_until(5.0)  # retries exhausted while partitioned
    assert net.stats.send_failures == 1
    net.heal("a", "b")
    net.send("a", "b", "second")
    net.send("a", "b", "third")
    sim.run_until(6.0)  # far less than the 60s hold timeout
    assert got == ["second", "third"]
    assert net.stats.gap_skips == 0


def test_gap_skip_backstops_sender_that_goes_silent():
    # seq 1's attempts all die inside the partition; seq 2 is sent just
    # after heal while seq 1 is still pending (base still 1), delivers
    # into the hold buffer, and no later frame arrives to advance the
    # base.  Only the hold timer can release it.
    config = ReliableConfig(
        rto=0.1, backoff=1.5, max_retries=2, jitter=0.0, hold_timeout=2.0
    )
    sim, net = build(config=config)
    got = []
    net.attach("b", lambda m: got.append(m.body))
    net.partition("a", "b")
    net.send("a", "b", "doomed")  # attempts at 0, 0.1, 0.25; gives up at 0.475
    sim.run_until(0.3)
    net.heal("a", "b")
    net.send("a", "b", "second")  # arrives 0.31, held behind live gap 1
    sim.run_until(1.0)
    assert got == []  # still held: gap was live when the frame arrived
    sim.run_until(10.0)
    assert got == ["second"]
    assert net.stats.gap_skips == 1
    assert net.stats.send_failures == 1


def test_ack_loss_triggers_retransmit_but_single_delivery():
    # Loss hits data and ack frames alike; the app must still see each
    # payload exactly once.
    sim, net = build(seed=11, loss=0.35)
    got = []
    net.attach("b", lambda m: got.append(m.body))
    for i in range(30):
        net.send("a", "b", i)
    sim.run_until(60.0)
    assert got == list(range(30))


def test_bidirectional_channels_are_independent():
    sim, net = build(seed=2, loss=0.2)
    got_a, got_b = [], []
    net.attach("a", lambda m: got_a.append(m.body))
    net.attach("b", lambda m: got_b.append(m.body))
    for i in range(20):
        net.send("a", "b", ("ab", i))
        net.send("b", "a", ("ba", i))
    sim.run_until(60.0)
    assert got_b == [("ab", i) for i in range(20)]
    assert got_a == [("ba", i) for i in range(20)]


def test_transport_mode_cannot_change_mid_run():
    sim = Simulator()
    net = Network(sim, transport="udp")
    net.attach("b", lambda m: None)
    net.send("a", "b", 1)
    net.transport = "reliable"
    with pytest.raises(NetworkError):
        net.send("a", "b", 2)


def test_unknown_transport_rejected():
    with pytest.raises(NetworkError):
        Network(Simulator(), transport="tcp")


def test_invalid_rates_rejected():
    sim = Simulator()
    with pytest.raises(NetworkError):
        Network(sim, reorder_rate=1.0)
    with pytest.raises(NetworkError):
        Network(sim, duplicate_rate=-0.1)
    net = Network(sim)
    with pytest.raises(NetworkError):
        net.set_reorder_rate(1.5)
    with pytest.raises(NetworkError):
        net.set_duplicate_rate(1.5)
    with pytest.raises(NetworkError):
        net.set_link_loss("a", "b", 1.0)
