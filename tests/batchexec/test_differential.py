"""Tick-loop-vs-reference differential battery over the bundled programs.

Each test runs one workload twice on the same seed — the test-side
reference (``tests/runtime/reference_loop.py``) vs the tick loop — and
asserts byte-identical state: final tables, ordered alarm streams, work
counters, exact ``busy_seconds`` bit patterns, and network accounting.  The fast tier
sweeps five seeds per workload; the slow sweep (CI nightly) covers
twenty-five on the heaviest workload.
"""

from __future__ import annotations

import pytest

from tests.batchexec.harness import (
    assert_identical,
    differential,
    observed_chord,
    on_both,
    run_aggtree,
    run_chord,
    run_chord_jittered,
    run_chord_observed,
    run_gossip,
    run_monitors,
    system_state,
)

FAST_SEEDS = (0, 1, 2, 3, 4)


@pytest.fixture(scope="module")
def observed_seed0():
    """Seed 0 of the observed workload on both executions, run once for
    its differential and its vacuity check."""
    return on_both(observed_chord, 0)


@pytest.fixture(scope="module")
def monitors_seed0():
    """Seed 0 of the monitor workload on both executions, run once for
    its differential and its vacuity check."""
    return differential(run_monitors, 0)


@pytest.mark.parametrize("seed", FAST_SEEDS)
def test_chord_identical(seed):
    differential(run_chord, seed)


@pytest.mark.parametrize("seed", FAST_SEEDS)
def test_chord_with_failure_identical(seed):
    differential(run_chord, seed, nodes=10, duration=120.0, kill_last=True)


@pytest.mark.parametrize("seed", FAST_SEEDS[:3])
def test_observed_chord_identical(seed, request):
    if seed == 0:
        nets = request.getfixturevalue("observed_seed0")
        assert_identical(
            {label: system_state(net.system, net.addresses) for label, net in nets.items()}
        )
    else:
        differential(run_chord_observed, seed)


@pytest.mark.parametrize("transport", ("udp", "reliable"))
@pytest.mark.parametrize("seed", (3, 4))
def test_jittered_chord_identical(seed, transport):
    differential(run_chord_jittered, seed, transport=transport)


def test_observed_workload_is_not_vacuous(observed_seed0):
    """Every observer in the observed differential actually recorded,
    and every retained rule execution took time: its ``ruleExec`` row
    ends after it starts (§3.2's RuleT)."""
    net = observed_seed0["tick"]
    state = system_state(net.system, net.addresses)
    for node in state["nodes"].values():
        for ring in ("ruleExec", "tupleLog", "tableLog"):
            assert node["tables"][ring], ring
        assert sum(c["offered"] for c in node["overload"].values()) > 0
    for address in net.addresses:
        rows = list(net.system.node(address).store.get("ruleExec").scan())
        # ruleExec@N(Rule, CauseID, EffectID, InT, OutT, IsEvent)
        assert all(row.values[5] > row.values[4] for row in rows), address


@pytest.mark.parametrize("seed", FAST_SEEDS)
def test_gossip_identical(seed):
    differential(run_gossip, seed)


@pytest.mark.parametrize("seed", FAST_SEEDS)
def test_monitors_identical(seed, request):
    if seed == 0:
        request.getfixturevalue("monitors_seed0")
    else:
        differential(run_monitors, seed)


@pytest.mark.parametrize("seed", (0, 1))
def test_aggtree_tree_mode_identical(seed):
    differential(run_aggtree, seed, mode="tree")


def test_aggtree_centralized_mode_identical():
    differential(run_aggtree, 0, mode="centralized")


def test_monitors_workload_is_not_vacuous(monitors_seed0):
    """The equivalence must be over a run that actually did something:
    rules fired, messages flowed, and at least one monitor alarmed
    (a killed node must trip the ring probe eventually)."""
    state = monitors_seed0["tick"]
    assert state["net"]["delivered"] > 1000
    total_rules = sum(
        n["rule_executions"] for n in state["nodes"].values()
    )
    assert total_rules > 1000
    alarm_total = sum(
        len(stream)
        for per_monitor in state["alarms"].values()
        for stream in per_monitor.values()
    )
    assert alarm_total > 0


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(25))
def test_monitors_sweep(seed):
    """The 25-seed nightly sweep on the monitor workload (the one with
    the richest cross-layer surface: ring maintenance + fan-in + kill
    + three monitors' alarm streams)."""
    differential(run_monitors, seed)


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(25))
def test_chord_sweep(seed):
    differential(run_chord, seed, nodes=16, duration=150.0)
