"""Epoch-driven execution of global monitors, in both evaluation modes.

A :class:`GlobalAggregateMonitor` pairs an optional node-local OverLog
program (the per-node detector, installed unchanged on every node) with
a *global* program whose aggregate rules summarize the whole population
at a collector.  ``install`` plans the global program
(:mod:`repro.aggtree.planner`) and wires one of two executions:

- ``centralized`` — the baseline the paper implies: every node ships
  its raw contributions (one ``aggRaw`` tuple per row) to the
  collector, which folds them and emits the global tuples;
- ``tree`` — each node folds its own rows into mergeable partials
  (:mod:`repro.aggtree.partials`), merges in its children's partials,
  and ships a single ``aggPartial`` tuple up a deterministic fanout-k
  overlay (:mod:`repro.aggtree.tree`); only the collector's direct
  children ever reach it.

Both modes capture contributions through the *same* per-node
subscriptions, bucket them by the same absolute virtual-clock epochs,
fold them through the same partial algebra, and emit global tuples on
the same schedule — which is why the differential battery
(``tests/aggtree``) can demand byte-identical verdict fingerprints.

Time within an epoch ``e`` of length ``L`` (``t_e = (e+1)*L`` is the
boundary, ``D`` the tree depth):

- ``t_e``            — the tree for ``e`` is rebuilt from the live
  population and the ledger opens the epoch;
- ``t_e + (D-d+1)*h`` — tree mode: nodes at depth ``d`` flush, deepest
  first, so children's partials always precede the parent's flush
  (``h`` is ``hop_delay``, far above the network latency);
- ``t_e + h``        — centralized mode: every node ships its rows;
- ``t_e + (D+1)*h``  — both modes: the collector finalizes, emits the
  global tuples, and the collector program's alarm rules fire.

Anything arriving for an epoch after its flush point is **late**:
counted in the :class:`AggLedger` and the ``agg_late_total`` counter,
never silently merged.  Aggregation traffic is classified under the
``monitor`` priority class, so overload protection sheds it before any
application data (see ``tests/overload/test_aggtree_storm.py``).
"""

from __future__ import annotations

import hashlib
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple as PyTuple

from repro import codec
from repro.errors import AggregationError
from repro.overload.policy import CLASS_MONITOR
from repro.overlog.program import Program
from repro.runtime.tuples import Tuple
from repro.aggtree.partials import (
    DEFAULT_SKETCH_CAPACITY,
    DEFAULT_TOP_K,
    Partial,
    make_partial,
    partial_from_wire,
    sort_key,
)
from repro.aggtree.planner import AggPlan, plan_global
from repro.aggtree.tree import AggregationTree

#: Wire relations the aggregation plane sends between nodes.
AGG_PARTIAL = "aggPartial"
AGG_RAW = "aggRaw"

#: Evaluation modes.
MODE_TREE = "tree"
MODE_CENTRALIZED = "centralized"
MODES = (MODE_TREE, MODE_CENTRALIZED)

#: Sentinel rule id of the per-node row-count marker in centralized
#: mode (lets the collector attribute origins without partials).
MARKER = ""


class _NodeBuf:
    """One node's accumulation state for one epoch."""

    __slots__ = ("raws", "child", "child_origins", "flushed")

    def __init__(self) -> None:
        #: rule_id -> [(group, value), ...] in arrival order (own rows).
        self.raws: Dict[str, List[PyTuple]] = {}
        #: rule_id -> {group: Partial} merged from children (tree mode).
        self.child: Dict[str, Dict[PyTuple, Partial]] = {}
        self.child_origins = 0
        self.flushed = False


class _CentralBuf:
    """The collector's raw-row accumulation for one epoch (centralized)."""

    __slots__ = ("rows", "origins_seen", "finalized")

    def __init__(self) -> None:
        self.rows: Dict[str, List[PyTuple]] = {}
        self.origins_seen: set = set()
        self.finalized = False


class AggLedger:
    """Per-epoch attribution: where did every expected origin end up?

    ``expected`` is the live population when the epoch's tree was
    built; ``merged`` is how many origins' state reached the final
    verdict; ``late`` arrived after their window and were counted, not
    merged; ``missing = expected - merged - late`` is the shed/lost
    remainder.  Inbound counts measure collector load (the benchmark's
    reduction ratio reads them).
    """

    def __init__(self) -> None:
        self.epochs: Dict[int, Dict[str, Any]] = {}

    def _row(self, epoch: int) -> Dict[str, Any]:
        return self.epochs.setdefault(
            epoch,
            {
                "epoch": epoch,
                "expected": 0,
                "merged": 0,
                "late_origins": 0,
                "late_rows": 0,
                "inbound_tuples": 0,
                "inbound_bytes": 0,
                "finalized": False,
                "skipped": False,
            },
        )

    def open(self, epoch: int, expected: int) -> None:
        self._row(epoch)["expected"] = expected

    def skip(self, epoch: int, expected: int) -> None:
        row = self._row(epoch)
        row["expected"] = expected
        row["skipped"] = True

    def record_inbound(self, epoch: int, tuples: int, size: int) -> None:
        row = self._row(epoch)
        row["inbound_tuples"] += tuples
        row["inbound_bytes"] += size

    def record_late(self, epoch: int, origins: int) -> None:
        self._row(epoch)["late_origins"] += origins

    def record_late_rows(self, epoch: int, rows: int) -> None:
        self._row(epoch)["late_rows"] += rows

    def finalize(self, epoch: int, merged: int) -> None:
        row = self._row(epoch)
        row["merged"] = merged
        row["finalized"] = True

    def rows(self) -> List[Dict[str, Any]]:
        out = []
        for epoch in sorted(self.epochs):
            row = dict(self.epochs[epoch])
            row["missing"] = max(
                0, row["expected"] - row["merged"] - row["late_origins"]
            )
            out.append(row)
        return out

    def totals(self) -> Dict[str, int]:
        keys = (
            "expected",
            "merged",
            "late_origins",
            "late_rows",
            "inbound_tuples",
            "inbound_bytes",
            "missing",
        )
        totals = {key: 0 for key in keys}
        for row in self.rows():
            for key in keys:
                totals[key] += row[key]
        return totals


class GlobalAggregateMonitor:
    """A population-wide monitor: local detector + global summary rules.

    ``global_source`` is OverLog whose aggregate rule heads live at the
    symbolic constant ``collector`` (bound to the actual address at
    install time); ``local_source``, when given, is installed unchanged
    on every node (role ``monitor``), exactly like a plain
    :class:`repro.monitors.base.Monitor`.  ``alarm_events`` are the
    relations the collector program derives that count as alarms.
    """

    def __init__(
        self,
        name: str,
        global_source: str,
        local_source: Optional[str] = None,
        alarm_events: Sequence[str] = (),
        bindings: Optional[Dict[str, Any]] = None,
        epoch_len: float = 10.0,
        fanout: int = 4,
        hop_delay: float = 0.5,
        top_k: int = DEFAULT_TOP_K,
        sketch_capacity: int = DEFAULT_SKETCH_CAPACITY,
    ) -> None:
        if epoch_len <= 0:
            raise AggregationError(f"epoch_len must be > 0: {epoch_len}")
        if hop_delay <= 0:
            raise AggregationError(f"hop_delay must be > 0: {hop_delay}")
        self.name = name
        self.global_source = global_source
        self.local_source = local_source
        self.alarm_events = tuple(alarm_events)
        self.bindings = dict(bindings or {})
        self.epoch_len = epoch_len
        self.fanout = fanout
        self.hop_delay = hop_delay
        self.top_k = top_k
        self.sketch_capacity = sketch_capacity

    def plan(self, collector: str) -> AggPlan:
        """Compile + plan the global program for one collector address."""
        bindings = dict(self.bindings)
        bindings.setdefault("collector", str(collector))
        program = Program.compile(
            self.global_source,
            name=f"{self.name}.global",
            bindings=bindings,
            role="monitor",
        )
        return plan_global(program)

    def install(
        self,
        system,
        collector: str,
        addresses: Optional[Sequence[str]] = None,
        mode: str = MODE_TREE,
    ) -> "AggHandle":
        """Wire this monitor into a running system; returns the handle."""
        if mode not in MODES:
            raise AggregationError(
                f"unknown aggregation mode {mode!r}; pick one of {MODES}"
            )
        if addresses is None:
            addresses = [str(a) for a in system.nodes]
        return AggHandle(self, system, str(collector), list(addresses), mode)


class AggHandle:
    """One installed global monitor: state, schedule, results, ledger."""

    def __init__(
        self,
        monitor: GlobalAggregateMonitor,
        system,
        collector: str,
        addresses: List[str],
        mode: str,
    ) -> None:
        self.monitor = monitor
        self.system = system
        self.collector = collector
        self.addresses = addresses
        self.mode = mode
        self.name = monitor.name
        self.epoch_len = monitor.epoch_len
        self.ledger = AggLedger()
        #: global relation -> emitted rows (value tuples), arrival order.
        self.globals: Dict[str, List[PyTuple]] = {}
        #: alarm relation -> delivered rows at the collector.
        self.alarms: Dict[str, List[PyTuple]] = {}
        #: epoch -> list of (child, parent) edges (tree panel data).
        self.tree_edges: Dict[int, List[PyTuple]] = {}
        self.last_tree: Optional[AggregationTree] = None

        self._bufs: Dict[str, Dict[int, _NodeBuf]] = {}
        self._central: Dict[int, _CentralBuf] = {}
        self._subs: List[PyTuple] = []  # (addr, relation, callback)
        self._installed: List[PyTuple] = []  # (addr, CompiledProgram)
        self._timer = None
        self._finalized_epoch: Optional[int] = None
        self._closed = False
        self._restart_hook = None

        if collector not in addresses:
            raise AggregationError(
                f"collector {collector!r} must be one of the monitored "
                "addresses"
            )
        self.plan = monitor.plan(collector)
        if self.plan.collector is not None and self.plan.collector != collector:
            raise AggregationError(
                f"{self.name}: global rules name collector "
                f"{self.plan.collector!r} but install targets {collector!r}"
            )

        tel = system.telemetry
        reg = tel.metrics
        self._c_partials = reg.counter(
            "agg_partials_sent_total",
            "aggPartial tuples sent up the tree",
            ("monitor",),
        )
        self._c_raws = reg.counter(
            "agg_raws_sent_total",
            "aggRaw tuples sent to the collector (centralized mode)",
            ("monitor",),
        )
        self._c_late = reg.counter(
            "agg_late_total",
            "partials/raws that arrived after their epoch window",
            ("monitor",),
        )
        self._c_fallback = reg.counter(
            "agg_fallback_total",
            "global rules left on the centralized path by the planner",
            ("monitor", "reason"),
        )
        self._c_epochs = reg.counter(
            "agg_epochs_total",
            "epochs finalized at the collector",
            ("monitor", "mode"),
        )
        self._c_inbound = reg.counter(
            "agg_collector_inbound_total",
            "aggregation tuples arriving at the collector",
            ("monitor", "mode"),
        )
        self._h_groups = reg.histogram(
            "agg_flush_groups",
            "groups per flushed partial message",
            ("monitor",),
        )
        self._h_depth = reg.histogram(
            "agg_tree_depth",
            "aggregation tree depth per epoch",
            ("monitor",),
        )

        self._install_programs()
        self._wire_nodes()
        self._wire_collector_sinks()
        self._wire_restart_hook()
        for rule in self.plan.fallbacks:
            self._c_fallback.inc(monitor=self.name, reason=rule.reason)
            tel.event(
                "agg.fallback",
                monitor=self.name,
                rule=rule.rule_id,
                head=rule.head_name,
                reason=rule.reason,
                detail=rule.detail,
            )
        tel.event(
            "agg.install",
            monitor=self.name,
            mode=self.mode,
            collector=self.collector,
            nodes=len(self.addresses),
            decomposed=len(self.plan.decomposed),
            fallbacks=len(self.plan.fallbacks),
        )

        sim = system.sim
        self._first_epoch = int(sim.now // self.epoch_len)
        boundary = (self._first_epoch + 1) * self.epoch_len
        self._timer = sim.schedule(boundary - sim.now, self._tick)

    # ------------------------------------------------------------------
    # Wiring

    def _node(self, addr: str):
        node = self.system.nodes.get(addr)
        if node is None or node.stopped:
            return None
        return node

    def _install_programs(self) -> None:
        monitor = self.monitor
        local = None
        if monitor.local_source is not None:
            local = Program.compile(
                monitor.local_source,
                name=f"{self.name}.local",
                bindings=monitor.bindings,
                role="monitor",
            )
        for addr in self.addresses:
            node = self._node(addr)
            if node is None:
                continue
            if local is not None:
                self._installed.append((addr, node.install(local)))
            if self.plan.fallback_program is not None:
                self._installed.append(
                    (addr, node.install(self.plan.fallback_program))
                )
        if self.plan.collector_program is not None:
            node = self._node(self.collector)
            if node is not None:
                self._installed.append(
                    (self.collector, node.install(self.plan.collector_program))
                )

    def _agg_relations(self) -> List[str]:
        names = [AGG_PARTIAL, AGG_RAW]
        names.extend(sorted(self.plan.global_names()))
        names.extend(self.monitor.alarm_events)
        return names

    def _wire_one_node(self, addr: str) -> None:
        """Subscriptions + priority classing for one live node."""
        node = self._node(addr)
        if node is None:
            return
        for relation in sorted(self.plan.relations()):
            cb = self._make_contribution_cb(addr)
            node.subscribe(relation, cb)
            self._subs.append((addr, relation, cb))
        if self.mode == MODE_TREE:
            cb = self._make_partial_cb(addr)
            node.subscribe(AGG_PARTIAL, cb)
            self._subs.append((addr, AGG_PARTIAL, cb))
        elif addr == self.collector:
            cb = self._make_raw_cb()
            node.subscribe(AGG_RAW, cb)
            self._subs.append((addr, AGG_RAW, cb))
        if node.overload is not None:
            # Interior nodes never install a program that derives the
            # agg relations, so the install-time role learning cannot
            # see them; class them directly.  Monitor class means the
            # tree sheds before any application data does.
            node.overload.priorities.learn(self._agg_relations(), CLASS_MONITOR)

    def _wire_nodes(self) -> None:
        for addr in self.addresses:
            self._wire_one_node(addr)

    def _wire_collector_sinks(self) -> None:
        node = self._node(self.collector)
        if node is None:
            raise AggregationError(
                f"collector {self.collector!r} is not a live node"
            )
        for name in sorted(self.plan.global_names()):
            rows = self.globals.setdefault(name, [])
            cb = self._make_sink_cb(rows)
            node.subscribe(name, cb)
            self._subs.append((self.collector, name, cb))
        for name in self.monitor.alarm_events:
            rows = self.alarms.setdefault(name, [])
            cb = self._make_sink_cb(rows)
            node.subscribe(name, cb)
            self._subs.append((self.collector, name, cb))

    def _wire_restart_hook(self) -> None:
        recovery = getattr(self.system, "recovery", None)
        if recovery is None:
            return

        def rewire(address, node, report) -> None:
            addr = str(address)
            if self._closed or addr not in self.addresses:
                return
            # The dead node's subscriptions died with it; re-wire the
            # replacement (collector sinks included when it is the
            # collector) and note the rebuild.
            self._subs = [s for s in self._subs if s[0] != addr]
            self._wire_one_node(addr)
            if addr == self.collector:
                self._wire_collector_sinks()
            self.system.telemetry.event(
                "agg.rebuild", monitor=self.name, node=addr
            )

        recovery.on_restart.append(rewire)
        self._restart_hook = rewire

    def _make_sink_cb(self, rows: List[PyTuple]):
        def sink(tup: Tuple) -> None:
            if not self._closed:
                rows.append(tuple(tup.values))

        return sink

    # ------------------------------------------------------------------
    # Capture

    def _make_contribution_cb(self, addr: str):
        rules = [
            r for r in self.plan.decomposed
        ]

        def on_contribution(tup: Tuple) -> None:
            if self._closed:
                return
            epoch = int(self.system.sim.now // self.epoch_len)
            buf = self._bufs.setdefault(addr, {}).setdefault(epoch, _NodeBuf())
            for rule in rules:
                if rule.relation != tup.name:
                    continue
                group = tuple(tup.values[i] for i in rule.group_indices)
                value = (
                    tup.values[rule.value_index]
                    if rule.value_index is not None
                    else None
                )
                buf.raws.setdefault(rule.rule_id, []).append((group, value))

        return on_contribution

    def _make_partial_cb(self, addr: str):
        def on_partial(tup: Tuple) -> None:
            if self._closed:
                return
            _dst, monitor, epoch, origins, payload = tup.values
            if monitor != self.name:
                return
            epoch = int(epoch)
            origins = int(origins)
            if addr == self.collector:
                self.ledger.record_inbound(epoch, 1, tup.estimated_size())
                self._c_inbound.inc(monitor=self.name, mode=self.mode)
            buf = self._bufs.setdefault(addr, {}).setdefault(epoch, _NodeBuf())
            late = buf.flushed or (
                self._finalized_epoch is not None
                and epoch <= self._finalized_epoch
            )
            if late:
                self.ledger.record_late(epoch, origins)
                self._c_late.inc(origins, monitor=self.name)
                self.system.telemetry.event(
                    "agg.late",
                    monitor=self.name,
                    node=addr,
                    epoch=epoch,
                    origins=origins,
                )
                return
            buf.child_origins += origins
            for rule_id, groups in payload:
                merged = buf.child.setdefault(rule_id, {})
                for group, wire in groups:
                    partial = partial_from_wire(wire)
                    existing = merged.get(group)
                    if existing is None:
                        merged[group] = partial
                    else:
                        existing.merge(partial)

        return on_partial

    def _make_raw_cb(self):
        def on_raw(tup: Tuple) -> None:
            if self._closed:
                return
            _dst, monitor, epoch, origin, rule_id, group, value = tup.values
            if monitor != self.name:
                return
            epoch = int(epoch)
            self.ledger.record_inbound(epoch, 1, tup.estimated_size())
            self._c_inbound.inc(monitor=self.name, mode=self.mode)
            central = self._central.setdefault(epoch, _CentralBuf())
            late = central.finalized or (
                self._finalized_epoch is not None
                and epoch <= self._finalized_epoch
            )
            if late:
                if rule_id == MARKER:
                    self.ledger.record_late(epoch, 1)
                    self._c_late.inc(monitor=self.name)
                else:
                    self.ledger.record_late_rows(epoch, 1)
                self.system.telemetry.event(
                    "agg.late",
                    monitor=self.name,
                    node=self.collector,
                    epoch=epoch,
                    origins=1 if rule_id == MARKER else 0,
                )
                return
            if rule_id == MARKER:
                central.origins_seen.add(origin)
            else:
                central.rows.setdefault(rule_id, []).append((group, value))

        return on_raw

    # ------------------------------------------------------------------
    # The epoch schedule

    def _tick(self) -> None:
        if self._closed:
            return
        sim = self.system.sim
        epoch = int(round(sim.now / self.epoch_len)) - 1
        live = [a for a in self.addresses if self._node(a) is not None]
        if self.collector not in live:
            self.ledger.skip(epoch, len(live))
            self.system.telemetry.event(
                "agg.collector_down", monitor=self.name, epoch=epoch
            )
        else:
            tree = AggregationTree(
                self.collector, live, fanout=self.monitor.fanout
            )
            self.last_tree = tree
            self.tree_edges[epoch] = tree.edges()
            self._h_depth.observe(tree.max_depth(), monitor=self.name)
            self.ledger.open(epoch, len(live))
            hop = self.monitor.hop_delay
            depth = tree.max_depth()
            if self.mode == MODE_TREE:
                for addr in tree.order[1:]:
                    delay = (depth - tree.depth(addr) + 1) * hop
                    sim.schedule(
                        delay,
                        lambda e=epoch, a=addr, t=tree: self._flush_tree(e, a, t),
                    )
            else:
                for addr in tree.order[1:]:
                    sim.schedule(
                        hop, lambda e=epoch, a=addr: self._flush_central(e, a)
                    )
            sim.schedule(
                (depth + 1) * hop, lambda e=epoch: self._finalize(e)
            )
        boundary = (epoch + 2) * self.epoch_len
        self._timer = sim.schedule(boundary - sim.now, self._tick)

    def _combine(self, buf: _NodeBuf, epoch: int) -> Dict[str, Dict[PyTuple, Partial]]:
        """Own raw rows + merged child partials -> per-rule group states."""
        monitor = self.monitor
        combined: Dict[str, Dict[PyTuple, Partial]] = {}
        for rule in self.plan.decomposed:
            groups: Dict[PyTuple, Partial] = dict(
                buf.child.get(rule.rule_id, {})
            )
            for group, value in buf.raws.get(rule.rule_id, ()):
                partial = groups.get(group)
                if partial is None:
                    partial = make_partial(
                        rule.func,
                        epoch,
                        k=monitor.top_k,
                        sketch_capacity=monitor.sketch_capacity,
                    )
                    partial.origins = 1
                    groups[group] = partial
                partial.add(value)
            if groups:
                combined[rule.rule_id] = groups
        return combined

    def _flush_tree(self, epoch: int, addr: str, tree: AggregationTree) -> None:
        if self._closed:
            return
        node = self._node(addr)
        buf = self._bufs.setdefault(addr, {}).setdefault(epoch, _NodeBuf())
        buf.flushed = True
        if node is None:
            # Died between tree build and its flush slot; its subtree's
            # already-received partials die with it (missing at root).
            return
        combined = self._combine(buf, epoch)
        payload = []
        n_groups = 0
        for rule in self.plan.decomposed:
            groups = combined.get(rule.rule_id)
            if not groups:
                continue
            entries = tuple(
                (group, groups[group].to_wire())
                for group in sorted(groups, key=sort_key)
            )
            n_groups += len(entries)
            payload.append((rule.rule_id, entries))
        origins = 1 + buf.child_origins
        parent = tree.parent(addr)
        node.inject(
            AGG_PARTIAL,
            (parent, self.name, epoch, origins, tuple(payload)),
        )
        self._c_partials.inc(monitor=self.name)
        self._h_groups.observe(n_groups, monitor=self.name)
        self.system.telemetry.event(
            "agg.flush",
            monitor=self.name,
            node=addr,
            parent=parent,
            epoch=epoch,
            origins=origins,
            groups=n_groups,
        )
        # Own rows are folded and shipped; free them, keep the flushed
        # marker so stragglers for this epoch are attributed as late.
        buf.raws = {}
        buf.child = {}

    def _flush_central(self, epoch: int, addr: str) -> None:
        if self._closed:
            return
        node = self._node(addr)
        buf = self._bufs.setdefault(addr, {}).setdefault(epoch, _NodeBuf())
        buf.flushed = True
        if node is None:
            return
        rows = []
        for rule in self.plan.decomposed:
            for group, value in buf.raws.get(rule.rule_id, ()):
                rows.append((rule.rule_id, group, value))
        node.inject(
            AGG_RAW,
            (self.collector, self.name, epoch, addr, MARKER, (), len(rows)),
        )
        for rule_id, group, value in rows:
            node.inject(
                AGG_RAW,
                (self.collector, self.name, epoch, addr, rule_id, group, value),
            )
        self._c_raws.inc(1 + len(rows), monitor=self.name)
        buf.raws = {}

    def _finalize(self, epoch: int) -> None:
        if self._closed:
            return
        collector_node = self._node(self.collector)
        buf = self._bufs.setdefault(self.collector, {}).setdefault(
            epoch, _NodeBuf()
        )
        buf.flushed = True
        if self.mode == MODE_CENTRALIZED:
            central = self._central.setdefault(epoch, _CentralBuf())
            central.finalized = True
            merged = len(central.origins_seen) + 1
            # Fold the received raw rows into the collector's own buffer
            # shape, then combine exactly like a tree node would.
            for rule_id, rows in central.rows.items():
                buf.raws.setdefault(rule_id, []).extend(rows)
            central.rows = {}
        else:
            merged = 1 + buf.child_origins
        self._finalized_epoch = epoch
        if collector_node is None:
            self.ledger.skip(epoch, self.ledger._row(epoch)["expected"])
            return
        combined = self._combine(buf, epoch)
        monitor = self.monitor
        for rule in self.plan.decomposed:
            groups = combined.get(rule.rule_id, {})
            if not rule.group_indices and () not in groups:
                # Ungrouped aggregates still report over an empty epoch
                # (count<*> of nothing is 0 — the paper's sr8 semantics).
                groups = dict(groups)
                groups[()] = make_partial(
                    rule.func,
                    epoch,
                    k=monitor.top_k,
                    sketch_capacity=monitor.sketch_capacity,
                )
            for group in sorted(groups, key=sort_key):
                value = groups[group].finalize()
                if value is None:
                    continue
                collector_node.inject(
                    rule.global_name, rule.emit_values(epoch, group, value)
                )
        buf.raws = {}
        buf.child = {}
        self.ledger.finalize(epoch, merged)
        self._c_epochs.inc(monitor=self.name, mode=self.mode)
        row = self.ledger._row(epoch)
        self.system.telemetry.event(
            "agg.finalize",
            monitor=self.name,
            mode=self.mode,
            epoch=epoch,
            expected=row["expected"],
            merged=merged,
            late=row["late_origins"],
        )
        # Old epochs can no longer accept anything but late arrivals
        # (caught by the _finalized_epoch check); free their buffers.
        for addr in list(self._bufs):
            for old in [e for e in self._bufs[addr] if e <= epoch]:
                del self._bufs[addr][old]
        for old in [e for e in self._central if e <= epoch]:
            del self._central[old]

    # ------------------------------------------------------------------
    # Results

    def alarm_count(self) -> int:
        return sum(len(rows) for rows in self.alarms.values())

    def fingerprint(self) -> str:
        """SHA-256 over the canonical global-tuple + alarm streams.

        Rows are sorted canonically, so two runs match iff they emitted
        the same verdicts — regardless of intra-epoch delivery order.
        """
        blob = codec.dumps(
            {
                "globals": {
                    name: sorted(map(codec.dumps, rows))
                    for name, rows in self.globals.items()
                },
                "alarms": {
                    name: sorted(map(codec.dumps, rows))
                    for name, rows in self.alarms.items()
                },
            }
        )
        return hashlib.sha256(blob.encode("ascii")).hexdigest()

    def verdict(self) -> Dict[str, Any]:
        """One run's comparable outcome (the differential battery's unit)."""
        totals = self.ledger.totals()
        return {
            "monitor": self.name,
            "mode": self.mode,
            "fingerprint": self.fingerprint(),
            "globals": {
                name: len(rows) for name, rows in sorted(self.globals.items())
            },
            "alarms": {
                name: len(rows) for name, rows in sorted(self.alarms.items())
            },
            "fallbacks": [
                {"rule": f.rule_id, "reason": f.reason}
                for f in self.plan.fallbacks
            ],
            "ledger": totals,
            "collector_inbound_tuples": totals["inbound_tuples"],
            "collector_inbound_bytes": totals["inbound_bytes"],
        }

    def remove(self) -> None:
        """Detach everything: subscriptions, programs, timers, hooks."""
        if self._closed:
            return
        self._closed = True
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        for addr, relation, cb in self._subs:
            node = self.system.nodes.get(addr)
            if node is not None and not node.stopped:
                node.unsubscribe(relation, cb)
        self._subs = []
        for addr, compiled in self._installed:
            node = self.system.nodes.get(addr)
            if node is not None and not node.stopped:
                try:
                    node.uninstall(compiled)
                except Exception:
                    pass
        self._installed = []
        recovery = getattr(self.system, "recovery", None)
        if recovery is not None and self._restart_hook in recovery.on_restart:
            recovery.on_restart.remove(self._restart_hook)
        self._restart_hook = None
