"""A one-page monitoring dashboard over a running system."""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.system import System
from repro.monitors.base import MonitorHandle


class Dashboard:
    """Aggregates node metrics and monitor alarms into a text page.

    Register monitor handles as they are installed; ``render()`` at any
    time produces a deterministic snapshot.  ``diff_since_last()``
    highlights what changed between renders (new alarms, newly seen
    drop reasons), the piece an operator actually scans for.

    All numbers are read through the system's telemetry registry
    (:class:`repro.obs.metrics.MetricsRegistry`), so the page shows the
    same values the exporters write.
    """

    def __init__(self, system: System, title: str = "deployment") -> None:
        self._system = system
        self.title = title
        self._handles: Dict[str, MonitorHandle] = {}
        self._agg_handles: Dict[str, object] = {}
        self._last_counts: Dict[str, Dict[str, int]] = {}
        self._last_drops: Dict[str, int] = {}
        self._last_status: Dict[str, str] = {}
        self._last_sheds: Dict[str, int] = {}
        self._last_shed_state: Dict[str, bool] = {}
        self._last_agg_alarms: Dict[str, int] = {}

    def add_monitor(self, handle: MonitorHandle) -> None:
        self._handles[handle.monitor.name] = handle

    def add_aggregate(self, handle) -> None:
        """Register an installed global monitor
        (:class:`repro.aggtree.runtime.AggHandle`) for the tree panel."""
        self._agg_handles[handle.name] = handle

    # ------------------------------------------------------------------

    def _drop_breakdown(self) -> Dict[str, int]:
        reg = self._system.telemetry.metrics
        return {
            key[0]: int(count)
            for key, count in reg.snapshot("net_dropped_total").items()
        }

    def render(self) -> str:
        system = self._system
        reg = system.telemetry.metrics
        sent = int(reg.value("net_counters_total", ("messages_sent",)))
        dropped = int(reg.value("net_counters_total", ("messages_dropped",)))
        drops = self._drop_breakdown()
        breakdown = ""
        if drops:
            inner = ", ".join(
                f"{reason}={count}" for reason, count in sorted(drops.items())
            )
            breakdown = f" ({inner})"
        lines: List[str] = [
            f"== {self.title} @ t={system.now:.1f}s ==",
            f"nodes: {len(system.live_nodes())} live / "
            f"{len(system.nodes)} total   "
            f"messages sent: {sent}   "
            f"dropped: {dropped}{breakdown}",
            "",
            "node                 status         cpu%      tuples   rule-execs",
        ]
        tuples = reg.snapshot("node_live_tuples")
        execs = reg.snapshot("node_rule_executions_total")
        for address in sorted(system.nodes):
            node = system.nodes[address]
            status = node.status
            if node.restarts and not node.stopped:
                status = f"{status} x{node.restarts}"
            if node.stopped:
                lines.append(f"{address:<18} {status:<12}")
                continue
            lines.append(
                f"{address:<18} {status:<12} {100 * node.cpu_utilization():7.3f}  "
                f"{tuples.get((address,), 0):>9}   "
                f"{execs.get((address,), 0):>9}"
            )
        recovery = getattr(system, "recovery", None)
        if recovery is not None:
            lines.append("")
            lines.append("durability (checkpoint + WAL):")
            medium = recovery.medium
            for address in medium.addresses():
                image = medium.ensure(address)
                lines.append(
                    f"  {address:<18} ckpt={image.checkpoint_bytes}B "
                    f"@t={image.checkpoint_time:.1f}  "
                    f"wal={len(image.wal)} rec/{image.wal_bytes}B  "
                    f"restarts={system.nodes[address].restarts}"
                )
        store = getattr(system, "store", None)
        if store is not None:
            lines.append("")
            lines.append("forensic store (durable events):")
            ratio = store.compression_ratio
            lines.append(
                f"  segments={store.segments_written} "
                f"({store.bytes_written}B)  "
                f"events={store.events_appended} -> "
                f"records={store.records_written} "
                f"(ratio {ratio:.2f}x)  "
                f"buffered={store.buffered}  "
                f"flushes={store.flushes}"
            )
            rotations = getattr(system, "ring_rotations", {})
            if rotations:
                per_ring: Dict[str, int] = {}
                for (_, ring), count in rotations.items():
                    per_ring[ring] = per_ring.get(ring, 0) + count
                inner = ", ".join(
                    f"{ring}={count}"
                    for ring, count in sorted(per_ring.items())
                )
                lines.append(
                    f"  ring rotations: {inner} "
                    f"(in-memory forensics lossy; slice from the store)"
                )
        controllers = [
            (address, system.nodes[address].overload)
            for address in sorted(system.nodes)
            if system.nodes[address].overload is not None
        ]
        if controllers:
            lines.append("")
            lines.append("overload / saturation:")
            for address, ctrl in controllers:
                cap = ctrl.mailbox.state.capacity
                cap_text = "inf" if cap is None else str(cap)
                state = "SHED" if ctrl.shed_active else "ok"
                sheds = ", ".join(
                    f"{cls}={counts['shed']}"
                    for cls, counts in ctrl.totals().items()
                )
                deferred = sum(
                    counts.deferred for counts in ctrl.counts.values()
                )
                lines.append(
                    f"  {address:<18} {state:<5} "
                    f"mailbox {len(ctrl.mailbox)}/{cap_text} "
                    f"(peak {ctrl.mailbox.depth_peak})  "
                    f"strand peak {ctrl.strand_state.depth_peak}  "
                    f"shed {sheds}  deferred={deferred}"
                )
        if self._agg_handles:
            lines.append("")
            lines.append("in-network aggregation:")
            for name in sorted(self._agg_handles):
                handle = self._agg_handles[name]
                totals = handle.ledger.totals()
                tree = handle.last_tree
                shape = (
                    f"depth={tree.max_depth()} fanout={tree.fanout} "
                    f"members={len(tree)}"
                    if tree is not None
                    else "tree not built yet"
                )
                lines.append(
                    f"  {name:<24} [{handle.mode}] root={handle.collector} "
                    f"{shape}"
                )
                lines.append(
                    f"    merged {totals['merged']}/{totals['expected']} "
                    f"origins  late={totals['late_origins']}  "
                    f"missing={totals['missing']}  "
                    f"collector-inbound={totals['inbound_tuples']}  "
                    f"alarms={handle.alarm_count()}"
                )
                fallbacks = getattr(handle.plan, "fallbacks", [])
                if fallbacks:
                    reasons = ", ".join(
                        f"{rule.rule_id}:{rule.reason}" for rule in fallbacks
                    )
                    lines.append(f"    fallbacks: {reasons}")
        lines.append("")
        lines.append("monitor alarms:")
        if not self._handles:
            lines.append("  (no monitors registered)")
        for name in sorted(self._handles):
            handle = self._handles[name]
            counts = ", ".join(
                f"{event}={len(tuples)}"
                for event, tuples in sorted(handle.alarms.items())
            )
            lines.append(f"  {name:<24} {counts}")
        return "\n".join(lines)

    def diff_since_last(self) -> List[str]:
        """What changed since the previous call (empty = all quiet).

        Reports new alarms per monitor, drop reasons seen for the
        first time — a fresh reason (e.g. the first ``down`` after a
        partition) is a different signal than more of a known one —
        plus overload activity: shed-count growth per node and
        shedding/recovered state transitions of admission control.
        """
        news: List[str] = []
        for name, handle in sorted(self._handles.items()):
            previous = self._last_counts.get(name, {})
            for event, tuples in sorted(handle.alarms.items()):
                fresh = len(tuples) - previous.get(event, 0)
                if fresh > 0:
                    news.append(f"{name}: +{fresh} {event}")
            self._last_counts[name] = {
                event: len(tuples) for event, tuples in handle.alarms.items()
            }
        for name, handle in sorted(self._agg_handles.items()):
            total = handle.alarm_count()
            fresh = total - self._last_agg_alarms.get(name, 0)
            if fresh > 0:
                news.append(f"{name}: +{fresh} global alarms")
            self._last_agg_alarms[name] = total
        drops = self._drop_breakdown()
        for reason in sorted(drops):
            if reason not in self._last_drops:
                news.append(
                    f"drops: new reason {reason} (+{drops[reason]})"
                )
        self._last_drops = drops
        for address in sorted(self._system.nodes):
            ctrl = self._system.nodes[address].overload
            if ctrl is None:
                continue
            total = sum(counts.shed for counts in ctrl.counts.values())
            grown = total - self._last_sheds.get(address, 0)
            if grown > 0:
                news.append(f"overload {address}: +{grown} shed")
            self._last_sheds[address] = total
            active = ctrl.shed_active
            before = self._last_shed_state.get(address)
            if before is not None and before != active:
                news.append(
                    f"overload {address}: "
                    f"{'shedding' if active else 'recovered'}"
                )
            self._last_shed_state[address] = active
        status = {
            address: self._system.nodes[address].status
            for address in sorted(self._system.nodes)
        }
        for address, state in status.items():
            before = self._last_status.get(address)
            if before is not None and before != state:
                news.append(f"node {address}: {before} -> {state}")
        self._last_status = status
        return news
