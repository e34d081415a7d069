"""The node-side durability tap: checkpoints + WAL appends.

A :class:`NodeRecorder` attaches to one live node and keeps its
:class:`~repro.recovery.durable.NodeImage` current:

- every table change (insert / refresh / remove, on every table
  including the introspection relations) appends a WAL record stamped
  with the virtual time and the row's absolute expiry deadline;
- every ``materialize`` appends a ``create`` record so tables born
  between checkpoints replay with the right declaration;
- every program install is journaled into the image;
- a periodic timer on the virtual clock takes a full checkpoint
  (snapshotting rows *with deadlines*) and truncates the WAL.

Durability is charged to the node's work model (``wal`` /
``checkpoint`` operations), so enabling recovery shows up in CPU
utilization and the work micro-clock exactly like tracing does — and
replay durations derived from it stay deterministic under the seed.

The recorder dies with the node: :meth:`repro.runtime.node.P2Node.stop`
clears table observers, which is precisely the fail-stop contract — the
WAL ends at the crash instant and the image becomes the node's forensic
record.
"""

from __future__ import annotations

from typing import Optional

from repro import codec
from repro.overlog.program import Program
from repro.overlog.types import INFINITY
from repro.recovery.durable import (
    NodeImage,
    create_record,
    insert_record,
    refresh_record,
    remove_record,
)
from repro.runtime.node import P2Node
from repro.runtime.table import InsertOutcome, RemoveReason, Table
from repro.runtime.tuples import Tuple


class NodeRecorder:
    """Keeps one node's durable image current while the node lives."""

    def __init__(
        self,
        node: P2Node,
        image: NodeImage,
        checkpoint_interval: float = 30.0,
    ) -> None:
        self.node = node
        self.image = image
        self.checkpoint_interval = checkpoint_interval
        self._seq = image.wal_records_total
        self._detached = False
        # Programs installed before protection started must replay too;
        # the on_install hook only sees future installs.
        image.programs = [compiled.program for compiled in node.programs]
        for table in node.store.tables():
            self._observe(table)
        node.store.on_create.append(self._table_created)
        node.on_install.append(self._program_installed)
        self._timer = node.sim.every(
            checkpoint_interval,
            self._tick,
            start_delay=checkpoint_interval,
        )
        # Baseline: the image must be replayable from the instant
        # protection starts, not only after the first interval.
        self.checkpoint()

    # ------------------------------------------------------------------
    # Taps

    def _observe(self, table: Table) -> None:
        table.on_insert.append(
            lambda tup, outcome, _t=table: self._inserted(_t, tup, outcome)
        )
        table.on_refresh.append(
            lambda tup, expires, _t=table: self._refreshed(_t, tup, expires)
        )
        table.on_remove.append(
            lambda tup, reason, _t=table: self._removed(_t, tup, reason)
        )

    def _table_created(self, table: Table) -> None:
        if self._detached:
            return
        self._observe(table)
        self._seq += 1
        self.image.append(
            create_record(
                self._seq,
                self.node.sim.now,
                table.name,
                table.lifetime,
                table.max_size,
                table.key_positions,
            )
        )

    def _program_installed(self, program: Program) -> None:
        self.image.programs.append(program)

    def _deadline(self, table: Table) -> float:
        if table.lifetime is INFINITY:
            return float("inf")
        return self.node.sim.now + float(table.lifetime)

    def _inserted(self, table: Table, tup: Tuple, outcome: InsertOutcome) -> None:
        if self._detached:
            return
        self._seq += 1
        self.node.work.charge("wal")
        self.image.append(
            insert_record(
                self._seq,
                self.node.sim.now,
                table.name,
                tup.values,
                self._deadline(table),
            ),
            size_hint=tup.estimated_size() + 24,
        )

    def _refreshed(self, table: Table, tup: Tuple, expires: float) -> None:
        if self._detached:
            return
        self._seq += 1
        self.node.work.charge("wal")
        self.image.append(
            refresh_record(
                self._seq, self.node.sim.now, table.name, tup.values, expires
            ),
            size_hint=tup.estimated_size() + 24,
        )

    def _removed(self, table: Table, tup: Tuple, reason: RemoveReason) -> None:
        if self._detached:
            return
        self._seq += 1
        self.node.work.charge("wal")
        self.image.append(
            remove_record(
                self._seq,
                self.node.sim.now,
                table.name,
                tup.values,
                reason.value,
            ),
            size_hint=tup.estimated_size() + 24,
        )

    # ------------------------------------------------------------------
    # Checkpoints

    def _tick(self) -> None:
        if self.node.stopped or self._detached:
            self.detach()
            return
        self.checkpoint()

    def checkpoint(self) -> dict:
        """Snapshot every table (rows with absolute deadlines) and
        truncate the WAL."""
        node = self.node
        tables = {}
        row_count = 0
        for table in node.store.tables():
            rows = []
            for tup, inserted_at, expires_at in table.snapshot_rows():
                rows.append(
                    [codec.encode_values(tup.values), inserted_at, expires_at]
                )
            row_count += len(rows)
            tables[table.name] = {
                "lifetime": codec.encode(table.lifetime),
                "max_size": codec.encode(table.max_size),
                "keys": list(table.key_positions),
                "rows": rows,
            }
        node.work.charge("checkpoint", max(1, row_count))
        document = {
            "time": node.sim.now,
            "meta": {"wire_mid": node._wire_mid},
            "tables": tables,
        }
        self.image.set_checkpoint(document)
        return document

    # ------------------------------------------------------------------

    def detach(self) -> None:
        """Stop checkpointing (idempotent).  Table observers are cleared
        by ``P2Node.stop`` on crash; for a live detach they stay attached
        but append to an image no manager will replay."""
        if self._detached:
            return
        self._detached = True
        self._timer.cancel()
