import pytest

from repro.errors import NetworkError
from repro.net.network import Network
from repro.net.topology import ConstantLatency
from repro.sim.simulator import Simulator


def build(loss=0.0, latency=0.01, seed=0):
    sim = Simulator(seed=seed)
    return sim, Network(sim, ConstantLatency(latency), loss_rate=loss)


def test_delivery_with_latency():
    sim, net = build(latency=0.05)
    got = []
    net.attach("b", got.append)
    net.send("a", "b", "hello")
    sim.run_until(0.049)
    assert got == []
    sim.run_until(0.051)
    assert len(got) == 1
    assert got[0].body == "hello"
    assert got[0].src == "a"


def test_fifo_per_channel():
    sim, net = build()
    got = []
    net.attach("b", lambda m: got.append(m.body))
    for i in range(20):
        net.send("a", "b", i)
    sim.run_until(1.0)
    assert got == list(range(20))


def test_unknown_destination_drops():
    sim, net = build()
    net.send("a", "ghost", "x")
    sim.run_until(1.0)
    assert net.stats.messages_dropped == 1
    assert net.stats.messages_delivered == 0


def test_attach_twice_rejected():
    _, net = build()
    net.attach("a", lambda m: None)
    with pytest.raises(NetworkError):
        net.attach("a", lambda m: None)


def test_detach_stops_delivery():
    sim, net = build()
    got = []
    net.attach("b", got.append)
    net.send("a", "b", 1)
    net.detach("b")
    sim.run_until(1.0)
    assert got == []


def test_partition_blocks_both_directions():
    sim, net = build()
    got_a, got_b = [], []
    net.attach("a", got_a.append)
    net.attach("b", got_b.append)
    net.partition("a", "b")
    net.send("a", "b", 1)
    net.send("b", "a", 2)
    sim.run_until(1.0)
    assert got_a == [] and got_b == []


def test_heal_restores_traffic():
    sim, net = build()
    got = []
    net.attach("b", got.append)
    net.partition("a", "b")
    net.send("a", "b", 1)
    net.heal("a", "b")
    net.send("a", "b", 2)
    sim.run_until(1.0)
    assert [m.body for m in got] == [2]


def test_take_down_drops_in_flight_messages():
    sim, net = build(latency=0.1)
    got = []
    net.attach("b", got.append)
    net.send("a", "b", 1)
    net.take_down("b")  # while the message is in flight
    sim.run_until(1.0)
    assert got == []
    assert net.stats.messages_dropped == 1


def test_bring_up_after_down():
    sim, net = build()
    got = []
    net.attach("b", got.append)
    net.take_down("b")
    net.send("a", "b", 1)
    sim.run_until(0.5)
    net.bring_up("b")
    net.send("a", "b", 2)
    sim.run_until(1.0)
    assert [m.body for m in got] == [2]


def test_loss_rate_drops_some_messages():
    sim, net = build(loss=0.5, seed=3)
    got = []
    net.attach("b", got.append)
    for i in range(200):
        net.send("a", "b", i)
    sim.run_until(5.0)
    assert 0 < len(got) < 200
    # Delivered messages still arrive in FIFO order.
    payloads = [m.body for m in got]
    assert payloads == sorted(payloads)


def test_invalid_loss_rate_rejected():
    sim = Simulator()
    with pytest.raises(NetworkError):
        Network(sim, loss_rate=1.0)
    net = Network(sim)
    with pytest.raises(NetworkError):
        net.set_loss_rate(-0.1)


def test_stats_counters():
    sim, net = build()
    net.attach("b", lambda m: None)
    net.send("a", "b", "x", size=100)
    sim.run_until(1.0)
    stats = net.stats
    assert stats.messages_sent == 1
    assert stats.messages_delivered == 1
    assert stats.bytes_sent == 100
    assert stats.per_node_sent["a"] == 1
    assert stats.per_node_received["b"] == 1


def test_addresses_listing():
    _, net = build()
    net.attach("b", lambda m: None)
    net.attach("a", lambda m: None)
    assert net.addresses == ["a", "b"]


def test_every_drop_has_an_attributed_reason():
    sim, net = build(loss=0.4, seed=5)
    net.attach("b", lambda m: None)
    net.partition("a", "c")
    net.take_down("d")
    for i in range(100):
        net.send("a", "b", i)   # some lost
    net.send("a", "c", "x")     # partitioned
    net.send("a", "d", "y")     # down
    net.send("a", "ghost", "z") # never attached (loss may eat it first)
    sim.run_until(5.0)
    stats = net.stats
    assert stats.drop_reasons["loss"] > 0
    assert stats.drop_reasons["partition"] == 1
    assert stats.drop_reasons["down"] == 1
    assert sum(stats.drop_reasons.values()) == stats.messages_dropped


def test_per_link_loss_overrides_global_rate():
    sim, net = build(seed=2)
    got_b, got_c = [], []
    net.attach("b", lambda m: got_b.append(m.body))
    net.attach("c", lambda m: got_c.append(m.body))
    net.set_link_loss("a", "b", 0.8)
    for i in range(100):
        net.send("a", "b", i)
        net.send("a", "c", i)
    sim.run_until(5.0)
    assert len(got_b) < 100   # lossy override on a -> b
    assert len(got_c) == 100  # other links keep the global (zero) rate
    net.set_link_loss("a", "b", 0.0)  # restore
    net.send("a", "b", "after")
    sim.run_until(10.0)
    assert got_b[-1] == "after"


def test_udp_reorder_knob_breaks_fifo():
    sim = Simulator(seed=8)
    net = Network(
        sim, ConstantLatency(0.01), reorder_rate=0.5, reorder_window=0.5
    )
    got = []
    net.attach("b", lambda m: got.append(m.body))
    for i in range(100):
        net.send("a", "b", i)
    sim.run_until(5.0)
    assert sorted(got) == list(range(100))  # nothing lost...
    assert got != sorted(got)               # ...but order was broken
    assert net.stats.messages_reordered > 0


def test_udp_duplicate_knob_delivers_copies():
    sim = Simulator(seed=8)
    net = Network(sim, ConstantLatency(0.01), duplicate_rate=0.5)
    got = []
    net.attach("b", lambda m: got.append(m.body))
    for i in range(100):
        net.send("a", "b", i)
    sim.run_until(5.0)
    assert len(got) > 100  # UDP mode surfaces fabric duplicates
    assert net.stats.messages_duplicated == len(got) - 100
    assert set(got) == set(range(100))
