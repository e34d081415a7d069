"""The one command line: ``python -m repro <command>``.

Demos (each deterministic under ``--seed``, which goes before the
command):

- ``quickstart``     — the Figure-1 path-vector rule plus a provenance walk;
- ``ring``           — stabilize a Chord ring, render it, run the
                       regression suite, print the dashboard;
- ``oscillation``    — the recycled-dead-neighbor pathology on buggy Chord;
- ``gossip``         — epidemic broadcast with delivery provenance;
- ``snapshot``       — Chandy-Lamport snapshots plus snapshot-scoped probes.

Tools (each package registers its own arguments and runs them):

- ``store {info,query,slice} DIR`` — :mod:`repro.store.cli`;
- ``faults``         — seeded fault campaigns, :mod:`repro.faults.campaign`;
- ``obs summarize``  — telemetry artifacts, :mod:`repro.obs.summarize`;
- ``aggtree``        — the aggregation differential, :mod:`repro.aggtree.cli`.

:func:`main` is the only place that parses, dispatches and turns an
outcome into an exit code:

- ``0`` — done;
- ``1`` — a :class:`~repro.errors.ReproError` or a file that cannot be
  read or written (one ``error: ...`` line on stderr, never a
  traceback), or a failed verdict (a campaign seed ``FAIL``, an aggtree
  seed ``DIVERGED``, a ring that did not stabilize);
- ``2`` — argparse rejected the command line (usage on stderr).
"""

from __future__ import annotations

import argparse
import sys

from repro.aggtree.cli import register as register_aggtree
from repro.errors import ReproError
from repro.faults.campaign import register as register_faults
from repro.obs.summarize import register as register_obs
from repro.store.cli import register as register_store


def cmd_quickstart(args) -> int:
    from repro import System
    from repro.analysis import trace_back
    from repro.report import render_chain

    system = System(seed=args.seed)
    for name in ("a", "b", "c"):
        system.add_node(name, tracing=True)
    system.install_source(
        """
        materialize(link, 100, 20, keys(1,2)).
        materialize(path, 100, 100, keys(1,2,3)).
        p0 path@A(B, [A, B], W) :- link@A(B, W).
        p1 path@B(C, [B, A] + P, W + Y) :- link@A(B, W), path@A(C, P, Y).
        """,
        name="allroutes",
    )
    system.node("a").inject("link", ("a", "b", 1))
    system.node("b").inject("link", ("b", "c", 2))
    system.run_for(5.0)
    for name in ("a", "b", "c"):
        for tup in sorted(system.node(name).query("path"), key=repr):
            print(f"  {tup}")
    target = system.node("c").query("path")[0]
    nodes = {a: system.node(a) for a in ("a", "b", "c")}
    print()
    print(render_chain(trace_back(nodes, "c", target)))
    return 0


def cmd_ring(args) -> int:
    from repro.chord import ChordNetwork
    from repro.monitors import (
        ConsistencyProbeMonitor,
        PassiveRingMonitor,
        RegressionSuite,
        RingProbeMonitor,
    )
    from repro.report import Dashboard, render_ring

    net = ChordNetwork(num_nodes=args.nodes, seed=args.seed)
    net.start()
    print(f"stabilizing {args.nodes} nodes...")
    if not net.wait_stable(max_time=600.0):
        print("ring failed to stabilize:", net.ring_errors())
        return 1
    net.run_for(30.0)
    print(render_ring(net))

    nodes = [net.node(a) for a in net.live_addresses()]
    suite = (
        RegressionSuite("ring-invariants")
        .expect_quiet(RingProbeMonitor(probe_period=5.0))
        .expect_quiet(PassiveRingMonitor())
        .expect_active(
            ConsistencyProbeMonitor(probe_period=15.0, tally_period=8.0),
            "consistency",
        )
        .install(nodes)
    )
    dashboard = Dashboard(net.system, title=f"chord x{args.nodes}")
    for expectation in suite._expectations:
        dashboard.add_monitor(expectation.handle)
    net.run_for(60.0)
    print()
    print(suite.evaluate(now=net.system.now))
    print()
    print(dashboard.render())
    return 0


def cmd_oscillation(args) -> int:
    from repro.faults import OscillationScenario

    scenario = OscillationScenario(
        num_nodes=args.nodes, seed=args.seed, check_period=15.0,
        chaotic_threshold=2,
    )
    report = scenario.run(stabilize_time=120.0, observe_time=150.0)
    print(f"victim:              {report.victim}")
    print(f"oscillations:        {report.oscillations}")
    print(f"repeat oscillators:  {report.repeat_oscillators}")
    print(f"chaotic verdicts by: {report.chaotic}")
    return 0


def cmd_gossip(args) -> int:
    from repro.analysis import trace_back
    from repro.gossip import GossipNetwork
    from repro.report import render_chain

    net = GossipNetwork(num_nodes=args.nodes, seed=args.seed, tracing=True)
    net.start()
    net.run_for(30.0)
    print(f"fully meshed: {net.fully_meshed()}")
    net.publish(net.addresses[0], 1, "hello")
    net.run_for(5.0)
    print(f"coverage: {len(net.coverage(1))}/{len(net.addresses)}")
    target = net.addresses[-1]
    (seen,) = [t for t in net.node(target).query("seenMsg")]
    nodes = {a: net.node(a) for a in net.addresses}
    print(render_chain(trace_back(nodes, target, seen)))
    return 0


def cmd_snapshot(args) -> int:
    from repro.chord import ChordNetwork
    from repro.monitors import SnapshotConsistencyProbes, SnapshotMonitor

    net = ChordNetwork(num_nodes=args.nodes, seed=args.seed)
    net.start()
    if not net.wait_stable(max_time=600.0):
        print("ring failed to stabilize")
        return 1
    net.run_for(60.0)
    nodes = [net.node(a) for a in net.live_addresses()]
    monitor = SnapshotMonitor(snap_period=20.0)
    handle = monitor.install_with_initiator(nodes, nodes[0])
    probes = SnapshotConsistencyProbes(
        probe_period=20.0, tally_period=10.0
    ).install(nodes)
    net.run_for(90.0)
    sid = nodes[0].query("currentSnap")[0].values[1]
    complete = sum(
        1 for n in nodes if SnapshotMonitor.snapshot_complete(n, sid)
    )
    print(f"snapshots taken: {sid}; snapshot {sid} complete on "
          f"{complete}/{len(nodes)} nodes")
    values = [t.values[2] for t in probes.alarms["consistency"]]
    print(f"snapshot-scoped consistency verdicts: {values[-6:]}")

    # Global property detection on the snapped cut (§3.4).
    from repro.analysis import (
        gather_snapshot,
        mutual_edges,
        ring_properties,
        single_points_of_failure,
        snapshot_statistics,
    )

    check_sid = sid
    while check_sid > 0 and not all(
        SnapshotMonitor.snapshot_complete(n, check_sid) for n in nodes
    ):
        check_sid -= 1
    graph = gather_snapshot(nodes, check_sid)
    report = ring_properties(graph)
    stats = snapshot_statistics(graph)
    print(f"\nglobal properties of snapshot {check_sid}:")
    print(f"  single ring over all participants: {report.is_single_ring}")
    print(f"  mutual-edge violations: {len(mutual_edges(graph))}")
    print(f"  single points of failure: "
          f"{sorted(single_points_of_failure(graph)) or 'none'}")
    print(f"  mean routing out-degree: {stats.mean_out_degree:.1f}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Demos and tools for the EuroSys 2006 "
        "monitoring/forensics reproduction.",
        epilog="exit codes: 0 done; 1 error (one 'error:' line on stderr) "
        "or failed verdict; 2 usage",
    )
    parser.add_argument(
        "--seed", type=int, default=1, help="seed of a demo command"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser(
        "quickstart", help="demo: path-vector rule and a provenance walk"
    ).set_defaults(run=cmd_quickstart)
    for name, handler, text in (
        ("ring", cmd_ring, "demo: monitored Chord ring and dashboard"),
        ("oscillation", cmd_oscillation, "demo: the oscillation pathology"),
        ("gossip", cmd_gossip, "demo: epidemic broadcast with provenance"),
        ("snapshot", cmd_snapshot, "demo: Chandy-Lamport snapshots"),
    ):
        p = commands.add_parser(name, help=text)
        p.add_argument("--nodes", type=int, default=8)
        p.set_defaults(run=handler)

    for register in (
        register_store, register_faults, register_obs, register_aggtree
    ):
        register(commands)

    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
