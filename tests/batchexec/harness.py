"""Shared runners for the batch-vs-per-tuple differential battery.

Every test in ``tests/batchexec`` follows the same shape: run one of
the bundled workloads twice on the same seed — once under the
per-tuple compatibility kernel (``batch_size=1``) and once under the
batched kernel — and demand *byte-identical* observable state.  The
equivalence claim is deliberately maximal: not just final tables and
alarm streams, but work-model counters, exact ``busy_seconds`` floats
(hex-encoded, so FP addition order is pinned), delivered-byte counts,
and the network's full drop-reason breakdown.  Batching is allowed to
change where overheads are paid, never what executes.

The runners return fingerprint dicts (canonical JSON under the hood)
so a failing comparison diffs down to the first divergent node.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Iterable, Optional

from repro.chord.harness import ChordNetwork
from repro.gossip.harness import GossipNetwork
from repro.monitors import (
    OscillationMonitor,
    RingProbeMonitor,
    StatusFlowMonitor,
)
from repro.overload.controller import OverloadConfig
from repro.sim.batch import DEFAULT_TICK, ExecutionConfig

#: The two kernels under comparison.  Both run on the same tick grid —
#: the differential isolates *batching*, not quantization.
PER_TUPLE = ExecutionConfig(batch_size=1, tick=DEFAULT_TICK)
BATCHED = ExecutionConfig(batch_size=None, tick=DEFAULT_TICK)

MODES = {"per-tuple": PER_TUPLE, "batched": BATCHED}


# ----------------------------------------------------------------------
# Fingerprinting


def node_state(node) -> Dict[str, Any]:
    """Everything one node observably did, in canonical form.

    ``tables`` includes the introspection rings (``ruleExec``,
    ``tupleLog``, ``tableLog``) when the node is traced or logged.
    """
    tables = {}
    for table in node.store.tables():
        tables[table.name] = sorted(repr(tup) for tup in table.scan())
    return {
        "tables": tables,
        "rule_executions": node.rule_executions,
        "tuples_delivered": node.tuples_delivered,
        "bytes_delivered": node.bytes_delivered,
        "work": dict(node.work.counters.counts),
        # float.hex pins the exact bit pattern: busy_seconds is a sum
        # of per-operation charges whose addition *order* the batch
        # path must reproduce (FP addition is not associative).
        "busy_seconds": node.work.busy_seconds.hex(),
        "overload": (
            node.overload.totals() if node.overload is not None else None
        ),
    }


def system_state(system, addresses: Iterable[str]) -> Dict[str, Any]:
    stats = system.network.stats
    return {
        "nodes": {
            str(addr): node_state(system.node(addr)) for addr in addresses
        },
        "net": {
            "sent": stats.messages_sent,
            "delivered": stats.messages_delivered,
            "dropped": stats.messages_dropped,
            "bytes": stats.bytes_sent,
            "drop_reasons": dict(stats.drop_reasons),
        },
    }


def fingerprint(state: Dict[str, Any]) -> str:
    canonical = json.dumps(state, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def first_divergence(a: Dict[str, Any], b: Dict[str, Any], path: str = ""):
    """Walk two state dicts; return the first differing path (or None).

    Keeps battery failures debuggable: a campaign-sized state dict
    compares as one fingerprint, but the assertion message should say
    *which node's which table* diverged.
    """
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            if key not in a or key not in b:
                return f"{path}/{key} (missing on one side)"
            hit = first_divergence(a[key], b[key], f"{path}/{key}")
            if hit:
                return hit
        return None
    if a != b:
        return f"{path}: {a!r} != {b!r}"
    return None


def assert_identical(states: Dict[str, Dict[str, Any]]) -> None:
    """Assert every mode produced the same state dict."""
    (label_a, state_a), (label_b, state_b) = sorted(states.items())
    if fingerprint(state_a) != fingerprint(state_b):
        where = first_divergence(state_a, state_b)
        raise AssertionError(
            f"{label_a} vs {label_b} diverged at {where}"
        )


# ----------------------------------------------------------------------
# Workload runners (one seed, one execution mode → state dict)


def run_chord(
    seed: int,
    execution: ExecutionConfig,
    nodes: int = 12,
    duration: float = 90.0,
    kill_last: bool = False,
) -> Dict[str, Any]:
    """Chord join + maintenance (stabilize/ping/finger-fix traffic)."""
    net = ChordNetwork(num_nodes=nodes, seed=seed, execution=execution)
    net.start()
    if kill_last:
        net.system.sim.schedule(
            duration / 2, lambda: net.kill(net.addresses[-1])
        )
    net.run_for(duration)
    state = system_state(net.system, net.live_addresses())
    state["ring_correct"] = net.ring_correct()
    return state


def run_chord_observed(
    seed: int,
    execution: ExecutionConfig,
    nodes: int = 6,
    duration: float = 45.0,
) -> Dict[str, Any]:
    """Chord with every observer attached: tracer, event logger,
    telemetry spans and an overload controller on every node (UDP).

    The paper's configuration.  Observers attach to the one
    receive → pump → fire path, so the kernels must agree on what each
    observer saw, not only on what the protocol computed.
    """
    net = ChordNetwork(
        num_nodes=nodes,
        seed=seed,
        tracing=True,
        logging=True,
        observability=True,
        overload=OverloadConfig(),
        execution=execution,
    )
    net.start()
    net.run_for(duration)
    return system_state(net.system, net.addresses)


def run_gossip(
    seed: int,
    execution: ExecutionConfig,
    nodes: int = 16,
    duration: float = 60.0,
) -> Dict[str, Any]:
    """Gossip epidemics: rumor mongering over the contact graph."""
    net = GossipNetwork(num_nodes=nodes, seed=seed, execution=execution)
    net.start()
    net.run_for(duration)
    state = system_state(net.system, net.addresses)
    state["views"] = {
        addr: sorted(view)
        for addr, view in net.membership_views().items()
    }
    return state


def run_monitors(
    seed: int,
    execution: ExecutionConfig,
    nodes: int = 10,
    duration: float = 120.0,
) -> Dict[str, Any]:
    """The paper's monitors on a ring that loses a node mid-run.

    Covers the alarm pipeline end to end: ring probes, oscillation
    watch, and the status-flow fan-in monitor all run while a victim
    dies, and the *ordered* alarm streams must match byte for byte.
    """
    net = ChordNetwork(num_nodes=nodes, seed=seed, execution=execution)
    net.start()
    net.run_for(30.0)
    monitors = [
        RingProbeMonitor(probe_period=10.0),
        OscillationMonitor(),
        StatusFlowMonitor(report_period=1.0, summary_period=5.0),
    ]
    handles = [
        mon.install(net.system.node(a) for a in net.addresses)
        for mon in monitors
    ]
    collectors = net.addresses[:2]
    for i, addr in enumerate(net.addresses):
        node = net.system.node(addr)
        for metric in range(4):
            node.inject(
                "collectorOf",
                (addr, metric, collectors[(i + metric) % len(collectors)]),
            )
    net.system.sim.schedule(
        duration / 2, lambda: net.kill(net.addresses[-1])
    )
    net.run_for(duration)
    state = system_state(net.system, net.live_addresses())
    state["alarms"] = {
        mon.monitor.name: {
            event: [repr(tup) for tup in stream]
            for event, stream in mon.alarms.items()
        }
        for mon in handles
    }
    return state


def run_aggtree(
    seed: int,
    execution: ExecutionConfig,
    nodes: int = 8,
    stabilize: float = 60.0,
    duration: float = 100.0,
    mode: str = "tree",
) -> Dict[str, Any]:
    """Aggtree global monitors (in-network aggregation) on a buggy ring."""
    from repro.aggtree.monitors import BUNDLED_MONITORS

    net = ChordNetwork(
        num_nodes=nodes,
        seed=seed,
        recycle_dead_bug=True,
        execution=execution,
    )
    net.start()
    net.run_for(stabilize)
    collector = net.addresses[0]
    handles = {
        key: BUNDLED_MONITORS[key](epoch_len=20.0, fanout=3).install(
            net.system, collector, net.addresses, mode=mode
        )
        for key in sorted(BUNDLED_MONITORS)
    }
    net.system.sim.schedule(50.0, lambda: net.kill(net.addresses[-1]))
    net.run_for(duration)
    state = system_state(net.system, net.live_addresses())
    state["monitor_fingerprints"] = {
        key: handle.fingerprint() for key, handle in handles.items()
    }
    state["monitor_alarms"] = {
        key: handle.alarm_count() for key, handle in handles.items()
    }
    return state


def run_campaign_fingerprint(
    seed: int,
    execution: ExecutionConfig,
    *,
    churn: bool = False,
    storm: bool = False,
    nodes: int = 6,
    stabilize: float = 120.0,
    recovery: float = 220.0,
) -> str:
    """One randomized fault campaign; returns the canonical verdict.

    The campaign is the battery's hardest target: reliable transport,
    randomized fault schedules, monitors, and (in its variants)
    crash–restart recovery or overload storms — all of whose verdict
    fields must agree across kernels down to alarm timestamps.
    """
    from repro.faults.campaign import CampaignConfig, FaultCampaign

    config = CampaignConfig(
        num_nodes=nodes,
        stabilize_time=stabilize,
        recovery_time=recovery,
        churn=churn,
        storm=storm,
        execution=execution,
    )
    return FaultCampaign(seed, config).run().fingerprint()


def differential(run, seed: int, **kwargs) -> None:
    """Run ``run`` under both kernels and assert identical state."""
    states = {
        label: run(seed, execution, **kwargs)
        for label, execution in MODES.items()
    }
    assert_identical(states)
