"""Crash–restart orchestration over a :class:`repro.core.system.System`.

The :class:`RecoveryManager` is the system-level façade of the recovery
subsystem: it owns the :class:`~repro.recovery.durable.DurableMedium`,
attaches a :class:`~repro.recovery.recorder.NodeRecorder` to every
protected node, and implements :meth:`restart` — the paper-faithful
recovery path:

1. a fresh :class:`~repro.runtime.node.P2Node` is constructed under the
   dead address (with the same introspection configuration — tracer,
   event logger, reflector — it originally had);
2. the journaled programs reinstall (tables materialize, strands arm,
   periodic timers restart with fresh random phases);
3. the checkpoint and then the WAL replay *silently* into the tables —
   no observers fire, matching P2's no-retro-triggering install
   semantics — dropping every tuple whose lifetime lapsed while the
   node was down;
4. introspection counters (event-log sequence, ``tupleTable`` IDs, the
   wire message-id) resume past their replayed maxima so post-restart
   records never collide with forensic pre-crash rows;
5. a fresh recorder attaches and takes an immediate baseline
   checkpoint, and every ``on_restart`` callback (ring re-join hooks,
   alarm re-subscriptions) runs with the new node and the replay
   report.

Replay work is charged to the node's work model, so the
``recovery_duration_seconds`` histogram is deterministic under the
seed — byte-stable campaign verdicts can embed recovery outcomes.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro import codec
from repro.errors import ReproError
from repro.introspect.logger import TABLE_LOG, TUPLE_LOG
from repro.introspect.tuple_table import TUPLE_TABLE
from repro.net.address import Address
from repro.overlog.ast import Materialize
from repro.recovery.durable import (
    DurableMedium,
    NodeImage,
    OP_CREATE,
    OP_INSERT,
    OP_REFRESH,
    OP_REMOVE,
)
from repro.recovery.recorder import NodeRecorder
from repro.runtime.node import P2Node
from repro.runtime.tuples import Tuple


class RecoveryReport:
    """What one restart (or post-mortem replay) actually did."""

    def __init__(self, address: Address) -> None:
        self.address = address
        self.checkpoint_time = 0.0
        self.replayed = 0       # rows restored live
        self.lapsed = 0         # rows dropped (lifetime passed while down)
        self.removed = 0        # WAL removals applied
        self.wal_records = 0
        self.programs = 0
        self.tables = 0
        self.duration = 0.0     # work micro-clock seconds spent replaying

    def as_dict(self) -> dict:
        return {
            "address": self.address,
            "checkpoint_time": round(self.checkpoint_time, 6),
            "replayed": self.replayed,
            "lapsed": self.lapsed,
            "removed": self.removed,
            "wal_records": self.wal_records,
            "programs": self.programs,
            "tables": self.tables,
        }


def replay_image(
    node: P2Node,
    image: NodeImage,
    install_programs: bool = True,
) -> RecoveryReport:
    """Rebuild ``node``'s state from ``image`` (checkpoint + WAL).

    Rows are restored with their *absolute* expiry deadlines: anything
    that lapsed while the node was down is counted in ``report.lapsed``
    and stays dead.  Restoration is silent — no delta rules fire, no
    observers run — exactly P2's install semantics for pre-existing
    state.
    """
    report = RecoveryReport(node.address)
    charge = node.work.charge
    micro0 = node.work.micro_offset

    if install_programs:
        for program in image.programs:
            node.install(program)
            report.programs += 1

    checkpoint = image.checkpoint
    if checkpoint is not None:
        report.checkpoint_time = checkpoint["time"]
        for name, doc in checkpoint["tables"].items():
            table = _ensure_table(
                node, name, doc["lifetime"], doc["max_size"], doc["keys"]
            )
            report.tables += 1
            for values, inserted_at, expires_at in doc["rows"]:
                tup = Tuple(name, codec.decode_values(values))
                charge("replay")
                if table.restore(tup, expires_at, inserted_at):
                    report.replayed += 1
                else:
                    report.lapsed += 1

    for record in image.wal:
        report.wal_records += 1
        op = record["op"]
        if op == OP_CREATE:
            _ensure_table(
                node,
                record["table"],
                record["lifetime"],
                record["max_size"],
                record["keys"],
            )
            continue
        name = record["table"]
        if not node.store.has(name):
            # A change to a table whose declaration predates the image
            # (should not happen; tolerate corrupt/partial logs).
            continue
        table = node.store.get(name)
        tup = Tuple(name, codec.decode_values(record["values"]))
        charge("replay")
        if op in (OP_INSERT, OP_REFRESH):
            if table.restore(tup, record["expires"], record["t"]):
                report.replayed += 1
            else:
                report.lapsed += 1
        elif op == OP_REMOVE:
            if table.restore_remove(tup):
                report.removed += 1

    report.duration = node.work.micro_offset - micro0
    return report


def _ensure_table(node: P2Node, name: str, lifetime, max_size, keys):
    if node.store.has(name):
        return node.store.get(name)
    return node.store.materialize(
        Materialize(
            name, codec.decode(lifetime), codec.decode(max_size), list(keys)
        )
    )


class RecoveryManager:
    """Durable-state protection and crash–restart for one system."""

    def __init__(self, system, checkpoint_interval: float = 30.0) -> None:
        if getattr(system, "recovery", None) is not None:
            raise ReproError("system already has a RecoveryManager attached")
        self.system = system
        self.medium = DurableMedium()
        self.checkpoint_interval = checkpoint_interval
        self._recorders: Dict[Address, NodeRecorder] = {}
        #: Called after every successful restart with
        #: ``(address, node, report)`` — harnesses hang ring re-joins and
        #: alarm re-subscriptions here.
        self.on_restart: List[Callable[[Address, P2Node, RecoveryReport], None]] = []
        self.reports: List[RecoveryReport] = []
        system.recovery = self

        reg = system.telemetry.metrics
        self._restarts_counter = reg.counter(
            "recovery_restarts_total",
            "crash-restart recoveries performed per node",
            ("node",),
        )
        self._replayed_counter = reg.counter(
            "recovery_replayed_tuples_total",
            "tuples restored from checkpoint+WAL replay per node",
            ("node",),
        )
        self._lapsed_counter = reg.counter(
            "recovery_lapsed_tuples_total",
            "tuples dropped at replay because their lifetime passed while down",
            ("node",),
        )
        self._duration_hist = reg.histogram(
            "recovery_duration_seconds",
            "replay duration on the work micro-clock",
            ("node",),
        )
        medium_ref = self.medium
        reg.register_callback(
            "recovery_checkpoint_bytes",
            lambda: {
                (str(a),): medium_ref.ensure(a).checkpoint_bytes
                for a in medium_ref.addresses()
            },
            help="serialized size of the latest checkpoint per node",
            labelnames=("node",),
            kind="gauge",
        )
        reg.register_callback(
            "recovery_wal_records",
            lambda: {
                (str(a),): len(medium_ref.ensure(a).wal)
                for a in medium_ref.addresses()
            },
            help="WAL records accumulated since the latest checkpoint",
            labelnames=("node",),
            kind="gauge",
        )

    # ------------------------------------------------------------------
    # Protection

    def protect(self, address: Address) -> NodeRecorder:
        """Start durable recording for one node (idempotent)."""
        recorder = self._recorders.get(address)
        if recorder is not None and not recorder.node.stopped:
            return recorder
        node = self.system.node(address)
        if node.stopped:
            raise ReproError(f"cannot protect stopped node {address!r}")
        recorder = NodeRecorder(
            node, self.medium.ensure(address), self.checkpoint_interval
        )
        self._recorders[address] = recorder
        return recorder

    def protect_all(self) -> None:
        for address in list(self.system.nodes):
            if not self.system.node(address).stopped:
                self.protect(address)

    def protected(self) -> List[Address]:
        return sorted(self._recorders)

    # ------------------------------------------------------------------
    # Restart

    def restart(self, address: Address) -> RecoveryReport:
        """Bring a crashed node back from its durable image."""
        image = self.medium.image(address)
        old = self.system.node(address)
        if not old.stopped:
            raise ReproError(
                f"node {address!r} is still running; crash it before restart"
            )
        recorder = self._recorders.pop(address, None)
        if recorder is not None:
            recorder.detach()

        node = self.system.restart_node(address)
        report = replay_image(node, image)
        self.reports.append(report)
        self._resume_counters(node, image)

        # Fresh baseline: the new recorder checkpoints immediately, so a
        # second crash replays from the recovered state, not the old WAL.
        self._recorders[address] = NodeRecorder(
            node, image, self.checkpoint_interval
        )

        label = str(address)
        self._restarts_counter.inc(1, node=label)
        self._replayed_counter.inc(report.replayed, node=label)
        self._lapsed_counter.inc(report.lapsed, node=label)
        self._duration_hist.observe(report.duration, node=label)
        tel = self.system.telemetry
        if tel.enabled:
            tel.event(
                "recovery.restart",
                node=label,
                replayed=report.replayed,
                lapsed=report.lapsed,
                wal_records=report.wal_records,
                programs=report.programs,
            )
        for callback in list(self.on_restart):
            callback(address, node, report)
        return report

    def crash(self, address: Address) -> None:
        """Fail-stop a protected node, stamping the crash time on its
        durable image (thin wrapper over ``System.crash``)."""
        self.system.crash(address)
        if self.medium.has(address):
            self.medium.ensure(address).crashed_at = self.system.now

    def _resume_counters(self, node: P2Node, image: NodeImage) -> None:
        """Resume monotone counters past their replayed maxima."""
        checkpoint = image.checkpoint or {"meta": {}, "tables": {}}
        wire_mid = checkpoint.get("meta", {}).get("wire_mid", 0)
        # Sends are not WAL events, so over-approximate the mids spent
        # between checkpoint and crash; mids only need monotonicity.
        node._wire_mid = wire_mid + len(image.wal) + 1024

        def max_second_field(name: str) -> int:
            best = 0
            if node.store.has(name):
                for tup in node.store.get(name).scan():
                    if len(tup.values) > 1 and isinstance(tup.values[1], int):
                        best = max(best, tup.values[1])
            return best

        if node.registry is not None:
            node.registry.resume_from(max_second_field(TUPLE_TABLE))
        logger = self.system.loggers.get(node.address)
        if logger is not None:
            logger.resume_from(
                max(max_second_field(TUPLE_LOG), max_second_field(TABLE_LOG))
            )

    # ------------------------------------------------------------------

    def post_mortem(self, address: Address, store=None):
        """Open a forensic replica of a (dead) node's durable state.

        ``store`` defaults to the system's forensic store (when one is
        enabled), so replicas backfill trace rows the rings rotated
        away; pass ``store=False`` to force a rings-only replica.
        """
        from repro.recovery.postmortem import PostMortem

        if store is None:
            store = getattr(self.system, "store", None)
        elif store is False:
            store = None
        return PostMortem(self.medium, address, store=store)
