"""Event logging: system events buffered into queryable P2 tables.

§2.1: "We extend this principle further to the logging of system events
such as arrival of a tuple or removal of a tuple from a table.  Log
entries are tuples stored (more precisely, buffered) in P2 tables."

:class:`EventLogger` maintains two bounded log relations:

- ``tupleLog@N(Seq, Time, Name, Repr)`` — one row per locally delivered
  tuple (message arrivals, local events, periodic firings);
- ``tableLog@N(Seq, Time, Table, Op, Repr)`` — one row per table change
  (insert / replace / delete / expire / evict).

Both are bounded :class:`~repro.runtime.table.Ring` relations — a row is
appended as its values — that answer every read a table does, so they
can be joined from OverLog monitoring rules: the "querying P2 logs in
P2 itself" the paper found so convenient.
"""

from __future__ import annotations

import enum
from functools import partial
from typing import Any

from repro.overlog.ast import Materialize
from repro.runtime.node import P2Node
from repro.runtime.table import Table
from repro.runtime.tuples import Tuple

TUPLE_LOG = "tupleLog"
TABLE_LOG = "tableLog"

_INTERNAL = (TUPLE_LOG, TABLE_LOG, "ruleExec", "tupleTable")

#: Seconds a log row lives.
LOG_LIFETIME = 120.0


class EventLogger:
    """Buffers node events into the tupleLog / tableLog relations."""

    def __init__(self, node: P2Node, capacity: Any = 2000) -> None:
        self._node = node
        self._tuple_log = node.store.ring(
            Materialize(TUPLE_LOG, LOG_LIFETIME, capacity, [2])
        )
        self._table_log = node.store.ring(
            Materialize(TABLE_LOG, LOG_LIFETIME, capacity, [2])
        )
        self._seq = 0
        # What every log row calls, looked up once.
        self._address = node.address
        self._charge = node.work.charge
        self._work_clock = node.work_clock
        self._log_tuple = self._tuple_log.append
        self._log_table = self._table_log.append
        self._shown: Any = None
        self._text = ""

        node.on_deliver.append(self._tuple_delivered)
        for table in node.store.tables():
            self._observe(table)
        node.store.on_create.append(self._observe)

    def _observe(self, table: Table) -> None:
        if table.name in _INTERNAL:
            return
        # One observer serves on_insert and on_remove: the outcome or
        # the reason is an enum whose value names the change.
        observer = partial(self._table_changed, table.name)
        table.on_insert.append(observer)
        table.on_remove.append(observer)

    def _tuple_delivered(self, tup: Tuple) -> None:
        if tup.name in _INTERNAL:
            return
        self._seq += 1
        self._charge("trace")
        # A materialized tuple's table change is logged right after its
        # delivery: keep the text for it.
        self._shown = tup
        self._text = text = repr(tup)
        self._log_tuple(
            (self._address, self._seq, self._work_clock(), tup.name, text)
        )

    def _table_changed(self, table_name: str, tup: Tuple, change: enum.Enum) -> None:
        self._seq += 1
        self._charge("trace")
        self._log_table(
            (
                self._address,
                self._seq,
                self._work_clock(),
                table_name,
                change._value_,
                self._text if tup is self._shown else repr(tup),
            )
        )

    def resume_from(self, seq: int) -> None:
        """Advance the log sequence past ``seq`` (crash-recovery: log
        rows replayed from the durable image keep their pre-crash
        sequence numbers, so fresh entries must sort after them)."""
        if seq > self._seq:
            self._seq = seq
