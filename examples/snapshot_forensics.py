#!/usr/bin/env python3
"""Consistent snapshots, snapshot-scoped queries, and trace forensics
(§3.2-§3.3).

Deploys a traced Chord population with consistency probes, then:

1. takes periodic Chandy-Lamport snapshots and shows one node's snapped
   routing state and recorded channel messages;
2. runs consistency probes over the *snapshot* (rules l1s-l3s +
   cs4s/cs5s) and over the live ring, comparing the two metrics;
3. picks a probe response and walks its execution backwards — on-line
   with the ep rules, and offline with the analysis API — splitting its
   latency into rule / network / local time, as in §3.2.

    python examples/snapshot_forensics.py
"""

from repro import ChordNetwork
from repro.analysis import latency_breakdown, trace_back
from repro.monitors import (
    ConsistencyProbeMonitor,
    ExecutionProfiler,
    SnapshotConsistencyProbes,
    SnapshotMonitor,
)


def main() -> None:
    net = ChordNetwork(num_nodes=6, seed=13, tracing=True)
    net.start()
    print("stabilizing 6-node traced Chord ring...")
    assert net.wait_stable(max_time=300.0), net.ring_errors()
    net.run_for(60.0)
    nodes = [net.node(a) for a in net.live_addresses()]

    snapshot = SnapshotMonitor(snap_period=20.0)
    snapshot.install_with_initiator(nodes, nodes[0])
    live_probes = ConsistencyProbeMonitor(
        probe_period=20.0, tally_period=10.0
    ).install(nodes)
    snap_probes = SnapshotConsistencyProbes(
        probe_period=20.0, tally_period=10.0
    ).install(nodes)
    profiler = ExecutionProfiler(stop_rule="cs2")
    reports = profiler.install(nodes)
    results = net.system.collect("lookupResults")

    net.run_for(90.0)

    # 1. Snapshot contents.
    witness = nodes[2]
    snap_id = witness.query("currentSnap")[0].values[1]
    state = SnapshotMonitor.snapped_state(witness, snap_id)
    print(f"\n== snapshot {snap_id} at {witness.address} ==")
    print(f"  complete: {SnapshotMonitor.snapshot_complete(witness, snap_id)}")
    print(f"  snapped bestSucc: {state['bestSucc']}")
    print(f"  snapped pred:     {state['pred']}")
    print(f"  snapped fingers:  {len(state['fingers'])} entries")
    recorded = len(state["sendPredMessages"]) + len(
        state["returnSuccMessages"]
    )
    print(f"  channel messages recorded: {recorded}")

    # 2. Live vs snapshot-scoped consistency.
    live_values = [
        t.values[2] for t in live_probes.alarms["consistency"]
    ]
    snap_values = [
        t.values[2] for t in snap_probes.alarms["consistency"]
    ]
    print("\n== consistency metric (1.0 = perfectly consistent) ==")
    print(f"  live probes:     {live_values[-5:]}")
    print(f"  snapshot probes: {snap_values[-5:]}")

    # 3. Latency forensics on one response.
    remote = [t for t in results if t.values[5] != t.values[0]]
    target = remote[-1]
    observer = net.node(target.values[0])
    print(f"\n== forensics for {target} ==")

    before = len(reports.alarms["report"])
    profiler.profile_tuple(observer, target)
    net.run_for(5.0)
    report = reports.alarms["report"][before]
    print(
        f"  on-line (ep rules):  rule {report.values[2] * 1000:.3f} ms, "
        f"net {report.values[3] * 1000:.1f} ms, "
        f"local {report.values[4] * 1000:.3f} ms"
    )

    nodes_by_addr = {a: net.node(a) for a in net.addresses}
    chain = trace_back(nodes_by_addr, target.values[0], target)
    # The ep rules also count the last delivery hop, up to when the
    # observer first consumed the response: the earliest ruleExec row
    # the response caused there.
    tid = observer.registry.id_of(target)
    observed_at = min(
        row.values[4]
        for row in observer.store.get("ruleExec").scan()
        if row.values[2] == tid
    )
    breakdown = latency_breakdown(chain, observed_at=observed_at)
    print(
        f"  offline (analysis):  rule {breakdown.rule_time * 1000:.3f} ms, "
        f"net {breakdown.net_time * 1000:.1f} ms, "
        f"local {breakdown.local_time * 1000:.3f} ms, "
        f"{breakdown.hops} rule executions"
    )
    print("  causal chain (newest first):")
    for link in chain:
        hop = " <- network" if link.crossed_network else ""
        print(f"    {link.rule} @ {link.node}{hop}")


if __name__ == "__main__":
    main()
