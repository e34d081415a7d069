"""Storm-mode fault campaigns: overload protection under traffic floods.

The acceptance property: with shedding on, the priority invariant holds
(DATA is only shed while lower-priority admission is already closed)
and post-heal Chord lookups still converge to the oracle owner; the
control arm (shedding off, unbounded observe-only queues) demonstrates
the unbounded queue growth that protection prevents.  Verdicts are
byte-stable per seed, so any failure is replayable.
"""

from __future__ import annotations

import pytest

from repro.core.system import System
from repro.faults.campaign import CampaignConfig, FaultCampaign
from repro.faults.injector import FaultInjector
from repro.net.network import ReliableConfig
from repro.overload.controller import OverloadConfig

FAST_SEEDS = [0, 1]
# The full randomized storm sweep (nightly tier / CI smoke subset).
STORM_SEEDS = list(range(25))


def storm_config(**overrides) -> CampaignConfig:
    defaults = dict(num_nodes=6, storm=True, transport="udp")
    defaults.update(overrides)
    return CampaignConfig(**defaults)


def assert_protected(verdict) -> None:
    assert verdict.stabilized and verdict.converged
    assert verdict.overload is not None
    assert verdict.overload["invariant_ok"], (
        f"priority invariant violated: {verdict.overload}"
    )
    assert all(ok for _, ok in verdict.overload["lookups"]), (
        f"post-heal lookups failed: {verdict.overload['lookups']}"
    )


@pytest.mark.parametrize("seed", FAST_SEEDS)
def test_storm_respects_priority_invariant(seed):
    verdict = FaultCampaign(seed, storm_config()).run()
    assert_protected(verdict)
    # A storm against a bounded mailbox actually sheds something.
    classes = verdict.overload["classes"]
    total_shed = sum(agg["shed"] for agg in classes.values())
    assert total_shed > 0
    # The accounting identity holds in aggregate too.
    for cls, agg in classes.items():
        assert agg["offered"] == (
            agg["admitted"] + agg["shed"] + agg["deferred"]
        ), f"{cls}: {agg}"


def test_storm_verdict_is_byte_stable():
    first = FaultCampaign(3, storm_config()).run()
    second = FaultCampaign(3, storm_config()).run()
    assert first.fingerprint() == second.fingerprint()


def test_control_arm_shows_unbounded_growth():
    """Same seed, shedding off: observe-only queues grow far past the
    bound the protected arm enforces."""
    protected = FaultCampaign(0, storm_config()).run()
    control = FaultCampaign(0, storm_config(shedding=False)).run()
    bound = protected.overload["mailbox_peak"]
    assert bound <= 128  # capped by the default mailbox capacity
    assert control.overload["mailbox_peak"] > bound
    assert not control.overload["shedding"]
    total_shed = sum(
        agg["shed"] for agg in control.overload["classes"].values()
    )
    assert total_shed == 0  # observe-only: nothing is ever refused


def test_reliable_storm_defers_rather_than_sheds_data():
    """On the reliable transport the receiver gate answers BUSY, so
    overload turns into sender-side backpressure: DATA is deferred, the
    storm's sender overflows its bounded backlog, and every DATA offer
    and every dropped message is accounted for."""
    verdict = FaultCampaign(0, storm_config(transport="reliable")).run()
    assert_protected(verdict)
    assert verdict.counters["busy_nacks"] > 0
    data = verdict.overload["classes"]["data"]
    assert data["deferred"] > 0
    assert data["offered"] == data["admitted"] + data["shed"] + data["deferred"]
    # The storm runs at its sampled rate, above what the window drains.
    assert verdict.counters["backlogged"] > 0
    assert verdict.drop_reasons.get("send_backlog_full", 0) > 0
    assert verdict.counters["messages_dropped"] == sum(
        verdict.drop_reasons.values()
    )


def test_reliable_storm_overflowing_the_sender_backlog_is_attributed():
    """A storm the receiver cannot absorb fills the sender's window and
    then its bounded backlog: each overflow is a sender-visible drop
    with its reason, never a silent loss."""
    system = System(
        seed=0,
        transport="reliable",
        reliable=ReliableConfig(window=8, backlog=16),
        overload=OverloadConfig(service_time=0.2),
    )
    system.add_node("n0:1")
    FaultInjector(system).traffic_storm("n0:1", 100.0, 5.0)
    system.run_for(30.0)
    stats = system.network.stats
    assert stats.busy_nacks > 0
    assert stats.backlogged > 0
    overflow = stats.drop_reasons.get("send_backlog_full", 0)
    assert overflow > 0
    assert stats.send_failures >= overflow
    assert stats.messages_dropped == sum(stats.drop_reasons.values())


def test_storm_schedules_are_storm_only_and_healed():
    campaign = FaultCampaign(2, storm_config(slow_node_prob=1.0))
    schedule = campaign.sample_schedule(
        [f"n{i}:1000{i}" for i in range(6)]
    )
    kinds = {line.split(": ")[1].split("(")[0] for line in schedule.describe()}
    assert "traffic_storm" in kinds
    assert kinds <= {"traffic_storm", "slow_node"}
    # Storm end time is tracked so the quiet window starts after the
    # last burst actually stops.
    assert campaign._storm_end > 0


@pytest.mark.slow
@pytest.mark.parametrize("seed", STORM_SEEDS)
def test_randomized_storm_sweep(seed):
    """25 randomized storms: the priority invariant and post-heal
    lookup convergence hold for every seed (the PR's acceptance
    sweep; CI smoke runs a 5-seed subset)."""
    assert_protected(FaultCampaign(seed, storm_config()).run())
