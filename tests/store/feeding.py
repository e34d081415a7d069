"""Feed logical records to a store through its capture callbacks.

The store has no "append this dict" entry point — capture appends
scalars to per-kind buffers — so tests that start from the record model
of ``repro.store.format`` hand each record to the callback of its kind,
shaped as the ring row or registry write it would have come from.

A live store cuts segments at the simulator's tick barriers; a fed
store is its own simulator, and each record is a tick of its own:
:func:`feed` calls the barrier hook after every capture, so a store
cuts a segment at the record that fills it.
"""

from __future__ import annotations

from repro.runtime.table import InsertOutcome
from repro.runtime.tuples import Tuple
from repro.store import format as fmt


def feed(store, record) -> None:
    """Capture one ``re`` / ``tt`` / ``tl`` / ``xl`` record."""
    kind, node = record["k"], record["n"]
    if kind == fmt.RULE_EXEC:
        row = Tuple(
            "ruleExec",
            (node, record["r"], record["c"], record["e"],
             record["ti"], record["to"], record["ev"]),
        )
        store._on_rule_exec(node, row, InsertOutcome.NEW)
    elif kind == fmt.TUPLE_IDENT:
        # The callback stamps the store's clock: make it say what the
        # record does.
        store._clock = lambda: record["t"]
        store._on_register(
            node, record["i"], record["s"], record["si"], record["l"],
            fmt.payload_tuple(record.get("rep")),
        )
    elif kind == fmt.TUPLE_LOG:
        row = Tuple(
            "tupleLog",
            (node, record["seq"], record["t"], record["rel"], record["rep"]),
        )
        store._on_tuple_log(node, row)
    elif kind == fmt.TABLE_LOG:
        row = Tuple(
            "tableLog",
            (node, record["seq"], record["t"], record["rel"],
             record["op"], record["rep"]),
        )
        store._on_table_log(node, row)
    else:
        raise ValueError(f"not a capturable record kind: {kind}")
    store.on_tick_barrier(record["t"])


def feed_all(store, records) -> None:
    for record in records:
        feed(store, record)


def columns_of(records, first_q=0):
    """Records as the per-kind columns a cut hands to ``code_blocks``,
    ``q`` counting from ``first_q`` in list order."""
    columns = {}
    for q, record in enumerate(records, first_q):
        row = dict(record, q=q)
        if record["k"] == fmt.TUPLE_IDENT and "rep" in record:
            row["v"] = record["rep"]["v"]
        held = columns.setdefault(
            record["k"], {name: [] for name in fmt.COLUMNS[record["k"]]}
        )
        for name, column in held.items():
            column.append(row.get(name))
    return columns
