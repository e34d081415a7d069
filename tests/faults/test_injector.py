import pytest

from repro.chord import ChordNetwork
from repro.core.system import System
from repro.errors import ReproError
from repro.faults import FaultInjector
from repro.faults.injector import STORM_SOURCE
from repro.overload.controller import OverloadConfig


def echo_pair():
    system = System(seed=1)
    a = system.add_node("a:1")
    b = system.add_node("b:1")
    b.install_source("r out@N(X) :- evt@N(X).")
    a.install_source("r evt@Dst(X) :- go@N(Dst, X).")
    return system, a, b


def test_crash_stops_node():
    system, a, b = echo_pair()
    injector = FaultInjector(system)
    injector.crash("b:1")
    assert system.node("b:1").stopped


def test_crash_at_scheduled_time():
    system, a, b = echo_pair()
    injector = FaultInjector(system)
    injector.crash_at(5.0, "b:1")
    system.run_for(4.0)
    assert not system.node("b:1").stopped
    system.run_for(2.0)
    assert system.node("b:1").stopped


def test_partition_and_heal():
    system, a, b = echo_pair()
    injector = FaultInjector(system)
    got = b.collect("out")
    injector.partition("a:1", "b:1")
    a.inject("go", ("a:1", "b:1", 1))
    system.run_for(1.0)
    assert got == []
    injector.heal("a:1", "b:1")
    a.inject("go", ("a:1", "b:1", 2))
    system.run_for(1.0)
    assert [t.values[1] for t in got] == [2]


def test_isolate_and_rejoin():
    system, a, b = echo_pair()
    injector = FaultInjector(system)
    got = b.collect("out")
    injector.isolate("b:1")
    a.inject("go", ("a:1", "b:1", 1))
    system.run_for(1.0)
    assert got == []
    injector.rejoin("b:1")
    a.inject("go", ("a:1", "b:1", 2))
    system.run_for(1.0)
    assert len(got) == 1


def test_injection_log_records_everything():
    system, a, b = echo_pair()
    injector = FaultInjector(system)
    injector.partition("a:1", "b:1")
    injector.heal("a:1", "b:1")
    injector.set_loss_rate(0.1)
    injector.crash("b:1")
    kinds = [kind for _, kind, _ in injector.log]
    assert kinds == ["partition", "heal", "loss", "crash"]


# ----------------------------------------------------------------------
# Overload-plane verbs (traffic_storm / slow_node / corrupt)


def test_traffic_storm_floods_target_deterministically():
    system, a, b = echo_pair()
    injector = FaultInjector(system)
    injector.traffic_storm("b:1", rate=100.0, duration=0.5)
    system.run_for(2.0)
    stats = system.network.stats
    assert stats.per_node_received["b:1"] == 50  # rate * duration
    assert stats.per_node_sent[STORM_SOURCE] == 50
    assert injector.log[-1][1] == "traffic_storm"
    with pytest.raises(ReproError):
        injector.traffic_storm("b:1", rate=0.0, duration=1.0)
    with pytest.raises(ReproError):
        injector.traffic_storm("b:1", rate=10.0, duration=-1.0)


def test_overlapping_storms_never_reuse_message_ids():
    system, a, b = echo_pair()
    injector = FaultInjector(system)
    injector.traffic_storm("a:1", rate=50.0, duration=0.4)
    injector.traffic_storm("b:1", rate=50.0, duration=0.4)
    system.run_for(2.0)
    assert injector._storm_seq == 40  # one monotone counter, no reuse


def test_slow_node_requires_overload_protection():
    system, a, b = echo_pair()
    injector = FaultInjector(system)
    with pytest.raises(ReproError):
        injector.slow_node("b:1", 3.0)


def test_slow_node_scales_service_and_inverts():
    system = System(seed=1, overload=OverloadConfig(service_time=0.01))
    system.add_node("a:1")
    injector = FaultInjector(system)
    injector.slow_node("a:1", 4.0)
    ctrl = system.node("a:1").overload
    assert ctrl.slow_factor == 4.0
    assert ctrl.service_delay == pytest.approx(0.04)
    injector.slow_node("a:1", 1.0)  # the schedule DSL's inverse
    assert ctrl.slow_factor == 1.0


def test_storm_above_the_tick_rate_keeps_its_rate_and_ends_on_time():
    """A storm whose spacing (1 ms) is below the 10 ms tick sends
    rate x tick messages a tick, so it ends ``duration`` after it
    starts instead of stretching to one message a tick."""
    system = System(seed=1)
    system.add_node("a:1")
    injector = FaultInjector(system)
    system.run_for(1.0)
    injector.traffic_storm("a:1", rate=1000.0, duration=2.0)
    sent = system.network.stats.per_node_sent
    system.run_for(1.0)
    assert sent[STORM_SOURCE] == pytest.approx(1000, abs=10)
    system.run_for(1.0 + system.sim.tick)
    assert sent[STORM_SOURCE] == 2000  # rate * duration, all by start + duration
    system.run_for(1.0)
    assert sent[STORM_SOURCE] == 2000
    assert system.network.stats.per_node_received["a:1"] == 2000


def drained_per_second(factor):
    """Messages a storm-flooded node serves per second after
    ``slow_node(factor)``, with a 2 ms service time (below one tick)."""
    system = System(
        seed=1,
        overload=OverloadConfig(mailbox_capacity=None, service_time=0.002),
    )
    node = system.add_node("a:1")
    injector = FaultInjector(system)
    injector.slow_node("a:1", factor)
    injector.traffic_storm("a:1", rate=1000.0, duration=4.0)
    system.run_for(1.0)  # the mailbox fills
    ctrl = node.overload
    served = lambda: ctrl.counts["data"].admitted - len(ctrl.mailbox)
    before = served()
    system.run_for(2.0)
    assert ctrl.mailbox  # still saturated: the rate is the service rate
    return (served() - before) / 2.0


def test_slow_node_cuts_the_service_rate_below_one_tick():
    normal = drained_per_second(1.0)
    slow = drained_per_second(3.0)
    assert normal == pytest.approx(500.0, rel=0.02)  # 1 / 2 ms
    assert slow == pytest.approx(500.0 / 3.0, rel=0.02)  # 1 / 6 ms


def test_corrupt_verb_routes_through_helpers_and_logs():
    net = ChordNetwork(num_nodes=4, seed=40)
    net.start()
    assert net.wait_stable(max_time=200.0)
    injector = FaultInjector(net.system)
    victim, wrong = net.live_addresses()[0], net.live_addresses()[2]
    injector.corrupt(victim, "pred", wrong)
    assert net.pred_of(victim) == wrong
    injector.corrupt(victim, "bestSucc", wrong)
    assert net.best_succ_of(victim) == wrong
    kinds = [kind for _, kind, _ in injector.log]
    assert kinds == ["corrupt", "corrupt"]
    with pytest.raises(ReproError):
        injector.corrupt(victim, "finger", wrong)
