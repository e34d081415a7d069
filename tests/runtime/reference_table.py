"""The reference soft-state table: one ``_Row`` object per row.

This is :class:`repro.runtime.table.Table` as it was before a row became
its tuple plus one shared stamp — a ``_Row`` with its own ``seq``,
``order`` and ``expires_at``, one-element key tuples, and an expiry pass
that scans every row and recomputes the earliest deadline with
``min()``.  It is kept, unchanged but for this docstring and the shared
enums below, as the oracle ``tests/runtime/test_table_properties.py``
runs the production table against: same outcomes, same observer calls
in the same order, same scan order, probes and snapshots.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from operator import itemgetter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple as PyTuple

from repro.errors import SchemaError
from repro.overlog.types import INFINITY
from repro.runtime.table import InsertOutcome, RemoveReason
from repro.runtime.tuples import Tuple


class _Row:
    __slots__ = ("tuple", "inserted_at", "expires_at", "seq", "order")

    def __init__(
        self, tup: Tuple, now: float, expires_at: float, seq: int, order: int
    ):
        self.tuple = tup
        self.inserted_at = now
        self.expires_at = expires_at
        self.seq = seq
        # Scan-order stamp: assigned when the primary key first enters the
        # table and inherited across same-key replacements, mirroring dict
        # insertion order so indexed probes can reproduce scan order.
        self.order = order


class TableIndex:
    """A secondary hash index over a subset of 0-based column positions.

    Rows whose projected key is unhashable land in a ``loose`` side set
    that every probe also examines (the probe's ``match_args`` pass does
    the filtering); rows too short for the positions are omitted
    entirely, since no pattern probing through this index can match
    them.  The index only *narrows* the candidate set — callers must
    still unify candidates against their pattern, which keeps indexed
    evaluation equivalent to a scan even for values with exotic
    equality (the scan path would reject them identically).
    """

    __slots__ = (
        "positions", "_buckets", "_loose", "_memo", "probes", "rows_served",
    )

    def __init__(self, positions: PyTuple) -> None:
        self.positions = tuple(positions)
        # index key -> {primary key: _Row}
        self._buckets: Dict[PyTuple, Dict[PyTuple, _Row]] = {}
        # primary key -> _Row, for rows with unhashable index keys
        self._loose: Dict[PyTuple, _Row] = {}
        # Probe memo: probe key -> candidate list, valid until the next
        # mutation.  Consecutive firings probe the same key over and
        # over (e.g. every succ-table probe at node n uses key (n,)),
        # so the sort-and-collect work is paid once per quiet stretch.
        self._memo: Dict[PyTuple, List[Tuple]] = {}
        # Probe counters for introspection and tests.
        self.probes = 0
        self.rows_served = 0

    def _project(self, row: _Row) -> PyTuple:
        values = row.tuple.values
        return tuple(values[i] for i in self.positions)

    def add(self, key: PyTuple, row: _Row) -> None:
        if self._memo:
            self._memo.clear()
        try:
            self._buckets.setdefault(self._project(row), {})[key] = row
        except IndexError:
            return  # row too short to match any pattern using this index
        except TypeError:
            self._loose[key] = row

    def discard(self, key: PyTuple, row: _Row) -> None:
        if self._memo:
            self._memo.clear()
        try:
            ikey = self._project(row)
            bucket = self._buckets.get(ikey)
        except IndexError:
            return
        except TypeError:
            self._loose.pop(key, None)
            return
        if bucket is not None:
            bucket.pop(key, None)
            if not bucket:
                del self._buckets[ikey]

    def replace(self, key: PyTuple, old: _Row, new: _Row) -> None:
        """Swap ``old`` for ``new``, both stored under primary key ``key``.

        When the indexed columns did not change — a monitored value
        refreshed under its key, the fan-in case — ``new`` takes the
        bucket slot ``old`` holds; otherwise (columns differ, or the row
        is too short or unhashable) it is a discard and an add.  Probes
        cannot tell the two apart: ``new`` inherits ``old``'s scan
        order and :meth:`candidates` sorts on it.
        """
        if self._memo:
            self._memo.clear()
        try:
            ikey = self._project(new)
            if ikey == self._project(old):
                bucket = self._buckets[ikey]
                if key in bucket:
                    bucket[key] = new
                    return
        except (IndexError, TypeError, KeyError):
            pass
        self.discard(key, old)
        self.add(key, new)

    def candidates(self, key_values: PyTuple) -> List[Tuple]:
        """Live rows whose indexed columns may equal ``key_values``.

        Returned in table scan order.  An unhashable probe key degrades
        to the full indexed row set (equivalent to a scan).  Results are
        memoized until the next index mutation; memo hits count toward
        the probe statistics exactly like cold probes.
        """
        self.probes += 1
        try:
            probe_key = tuple(key_values)
            cached = self._memo.get(probe_key)
        except TypeError:
            rows = [r for b in self._buckets.values() for r in b.values()]
            rows.extend(self._loose.values())
            rows.sort(key=lambda r: r.order)
            self.rows_served += len(rows)
            return [r.tuple for r in rows]
        if cached is not None:
            self.rows_served += len(cached)
            return cached
        bucket = self._buckets.get(probe_key)
        rows = list(bucket.values()) if bucket else []
        if self._loose:
            rows.extend(self._loose.values())
        # Bucket order drifts from global order on same-key replacement,
        # so always restore scan order (near-sorted: Timsort is linear).
        rows.sort(key=lambda r: r.order)
        self.rows_served += len(rows)
        result = [r.tuple for r in rows]
        self._memo[probe_key] = result
        return result

    def __len__(self) -> int:
        return sum(len(b) for b in self._buckets.values()) + len(self._loose)


class Table:
    """One materialized soft-state relation on one node."""

    def __init__(
        self,
        name: str,
        lifetime: Any,
        max_size: Any,
        key_positions: List[int],
        now: Callable[[], float],
    ) -> None:
        """``key_positions`` are 1-based per the OverLog declaration."""
        if not key_positions:
            raise SchemaError(f"table {name!r} needs at least one key field")
        if any(k < 1 for k in key_positions):
            raise SchemaError(f"table {name!r}: key positions are 1-based")
        self.name = name
        self.lifetime = lifetime
        self.key_positions = list(key_positions)
        self._key_idx = [k - 1 for k in key_positions]
        # Insert-path constants, hoisted: the per-row TTL as a float (or
        # None for infinity) and a C-level key projector.
        self._ttl = None if lifetime is INFINITY else float(lifetime)
        if len(self._key_idx) == 1:
            only = self._key_idx[0]
            self._key_get = lambda values: (values[only],)
        else:
            self._key_get = itemgetter(*self._key_idx)
        self._now = now
        self._rows: Dict[PyTuple, _Row] = {}
        # Eviction order for the size bound: a min-heap of
        # ``(inserted_at, seq, key)`` stamps, None until the table first
        # overflows.  Entries are never removed in place — a row that
        # was deleted, expired, replaced or refreshed leaves a stale
        # stamp that ``_pop_victim`` skips — and the heap is dropped
        # (rebuilt at the next overflow) once it outgrows
        # ``_evict_slack``, so a table that is refreshed far more often
        # than it overflows holds no more than that.
        self._evict_heap: Optional[List[PyTuple]] = None
        self.max_size = max_size
        self._seq = 0
        self._order = 0
        self._indexes: Dict[PyTuple, TableIndex] = {}
        # Earliest possible expiry among live rows (a lower bound: a
        # refresh may raise a row's expires_at without updating this).
        # Lets every table access skip the expiry pass in O(1) until a
        # deadline is actually reached.
        self._next_expiry = float("inf")
        self.on_insert: List[Callable[[Tuple, InsertOutcome], None]] = []
        self.on_remove: List[Callable[[Tuple, RemoveReason], None]] = []
        # Fired on REFRESHED inserts (identical tuple re-inserted, TTL
        # renewed).  Kept separate from on_insert because refreshes are
        # not state *changes* — delta rules must not re-trigger — but
        # durability (the recovery WAL) must still see the new deadline.
        self.on_refresh: List[Callable[[Tuple, float], None]] = []
        # Lifetime counters for introspection.
        self.total_inserts = 0
        self.total_removals = 0

    @property
    def max_size(self) -> Any:
        """The declared size bound (a tuple count, or INFINITY)."""
        return self._max_size

    @max_size.setter
    def max_size(self, value: Any) -> None:
        self._max_size = value
        self._limit = None if value is INFINITY else int(value)
        self._evict_slack = 0 if value is INFINITY else 2 * int(value) + 16

    # ------------------------------------------------------------------

    def key_of(self, tup: Tuple) -> PyTuple:
        """The primary-key projection of ``tup``."""
        try:
            return self._key_get(tup.values)
        except IndexError:
            raise SchemaError(
                f"tuple {tup!r} too short for key positions "
                f"{self.key_positions} of table {self.name!r}"
            )

    def insert(self, tup: Tuple) -> InsertOutcome:
        """Insert/refresh ``tup``; fires observers; enforces bounds."""
        if tup.name != self.name:
            raise SchemaError(
                f"tuple {tup.name!r} inserted into table {self.name!r}"
            )
        self._expire_now()
        try:
            key = self._key_get(tup.values)
        except IndexError:
            raise SchemaError(
                f"tuple {tup!r} too short for key positions "
                f"{self.key_positions} of table {self.name!r}"
            )
        now = self._now()
        ttl = self._ttl
        expires = float("inf") if ttl is None else now + ttl
        if expires < self._next_expiry:
            self._next_expiry = expires
        existing = self._rows.get(key)
        indexes = self._indexes
        if existing is not None:
            if existing.tuple == tup:
                existing.expires_at = expires
                if existing.inserted_at != now:
                    # The row keeps its seq, so it sorts before a row
                    # first inserted earlier at this same instant.
                    existing.inserted_at = now
                    self._stamp(key, existing)
                callbacks = self.on_refresh
                if len(callbacks) == 1:
                    callbacks[0](tup, expires)
                elif callbacks:
                    for callback in list(callbacks):
                        callback(tup, expires)
                return InsertOutcome.REFRESHED
            old = existing.tuple
            self._seq += 1
            # The replacing row keeps the dict slot (and therefore the
            # scan-order stamp) of the row it displaces.
            row = _Row(tup, now, expires, self._seq, existing.order)
            self._rows[key] = row
            self._stamp(key, row)
            for index in indexes.values():
                index.replace(key, existing, row)
            self.total_inserts += 1
            self.total_removals += 1
            self._notify_remove(old, RemoveReason.REPLACED)
            self._notify_insert(tup, InsertOutcome.REPLACED)
            return InsertOutcome.REPLACED

        self._seq += 1
        self._order += 1
        row = _Row(tup, now, expires, self._seq, self._order)
        self._rows[key] = row
        self._stamp(key, row)
        if indexes:
            self._index_add(key, row)
        self.total_inserts += 1
        limit = self._limit
        if limit is not None and len(self._rows) > limit:
            self._enforce_size(limit, protect=key)
        self._notify_insert(tup, InsertOutcome.NEW)
        return InsertOutcome.NEW

    def delete(self, tup: Tuple) -> bool:
        """Remove the row whose key matches ``tup``; True if removed."""
        self._expire_now()
        key = self.key_of(tup)
        row = self._rows.get(key)
        if row is None or row.tuple != tup:
            return False
        del self._rows[key]
        self._index_discard(key, row)
        self.total_removals += 1
        self._notify_remove(row.tuple, RemoveReason.DELETED)
        return True

    def delete_matching(self, values: List[Any]) -> int:
        """Delete all rows matching a pattern with None wildcards.

        Used by OverLog ``delete`` rules: unbound head variables become
        None entries and match any value.  Returns the removal count.
        """
        self._expire_now()
        victims = []
        for row in self._rows.values():
            tup = row.tuple
            if len(values) != len(tup.values):
                continue
            if all(
                pattern is None or _eq(pattern, actual)
                for pattern, actual in zip(values, tup.values)
            ):
                victims.append(tup)
        for tup in victims:
            key = self.key_of(tup)
            row = self._rows.pop(key)
            self._index_discard(key, row)
            self.total_removals += 1
            self._notify_remove(tup, RemoveReason.DELETED)
        return len(victims)

    # ------------------------------------------------------------------
    # Crash-recovery replay (repro.recovery)

    def restore(
        self,
        tup: Tuple,
        expires_at: float,
        inserted_at: Optional[float] = None,
    ) -> bool:
        """Silently (re)load a row during checkpoint/WAL replay.

        No observers fire (replayed state must not retro-trigger delta
        rules, matching P2's install semantics) and ``expires_at`` is an
        *absolute* deadline carried over from the durable record, so a
        tuple whose lifetime lapsed while the node was down is dropped
        here rather than resurrected.  Returns True if the row was kept.
        """
        if tup.name != self.name:
            raise SchemaError(
                f"tuple {tup.name!r} restored into table {self.name!r}"
            )
        now = self._now()
        if expires_at <= now:
            return False
        key = self.key_of(tup)
        existing = self._rows.get(key)
        self._seq += 1
        if existing is not None:
            row = _Row(
                tup,
                inserted_at if inserted_at is not None else now,
                expires_at,
                self._seq,
                existing.order,
            )
            self._index_discard(key, existing)
        else:
            self._order += 1
            row = _Row(
                tup,
                inserted_at if inserted_at is not None else now,
                expires_at,
                self._seq,
                self._order,
            )
        self._rows[key] = row
        self._stamp(key, row)
        self._index_add(key, row)
        if expires_at < self._next_expiry:
            self._next_expiry = expires_at
        return True

    def snapshot_rows(self) -> List[PyTuple]:
        """Live rows with their timing metadata, for checkpointing:
        ``(tuple, inserted_at, expires_at)`` triples in scan order."""
        self._expire_now()
        return [
            (row.tuple, row.inserted_at, row.expires_at)
            for row in self._rows.values()
        ]

    def restore_remove(self, tup: Tuple) -> bool:
        """Silently drop the row matching ``tup`` during WAL replay
        (the removal was already observed pre-crash; replaying it must
        not re-fire observers)."""
        key = self.key_of(tup)
        row = self._rows.get(key)
        if row is None or row.tuple != tup:
            return False
        del self._rows[key]
        self._index_discard(key, row)
        return True

    # ------------------------------------------------------------------

    def scan(self) -> Iterator[Tuple]:
        """Iterate live tuples (expired rows are dropped first)."""
        self._expire_now()
        # Snapshot so rules may insert/delete while iterating.
        return iter([row.tuple for row in self._rows.values()])

    def lookup_key(self, key_values: PyTuple) -> Optional[Tuple]:
        """Fetch the live row with this primary key, if any."""
        self._expire_now()
        row = self._rows.get(tuple(key_values))
        return row.tuple if row is not None else None

    # ------------------------------------------------------------------
    # Secondary indexes

    def index_on(self, positions: List[int]) -> TableIndex:
        """Get or build a secondary index over 0-based column positions.

        Positions are canonicalized (sorted, deduplicated), so callers
        binding the same column subset share one index.  A new index is
        backfilled from the current rows — programs are routinely
        installed on nodes whose tables already hold state.
        """
        canon = tuple(sorted({int(p) for p in positions}))
        if not canon:
            raise SchemaError(
                f"table {self.name!r}: an index needs at least one column"
            )
        if canon[0] < 0:
            raise SchemaError(
                f"table {self.name!r}: index positions are 0-based "
                f"column offsets, got {positions!r}"
            )
        index = self._indexes.get(canon)
        if index is None:
            index = TableIndex(canon)
            for key, row in self._rows.items():
                index.add(key, row)
            self._indexes[canon] = index
        return index

    def indexes(self) -> List[TableIndex]:
        """The table's secondary indexes (for introspection)."""
        return list(self._indexes.values())

    def probe_index(self, index: TableIndex, key_values: PyTuple) -> List[Tuple]:
        """Live tuples whose ``index.positions`` columns may equal
        ``key_values``, in scan order (expired rows are dropped first,
        exactly as :meth:`scan` does)."""
        self._expire_now()
        return index.candidates(key_values)

    def _index_add(self, key: PyTuple, row: _Row) -> None:
        for index in self._indexes.values():
            index.add(key, row)

    def _index_discard(self, key: PyTuple, row: _Row) -> None:
        for index in self._indexes.values():
            index.discard(key, row)

    def __len__(self) -> int:
        self._expire_now()
        return len(self._rows)

    def __contains__(self, tup: Tuple) -> bool:
        self._expire_now()
        row = self._rows.get(self.key_of(tup))
        return row is not None and row.tuple == tup

    def estimated_bytes(self) -> int:
        """Approximate memory footprint of live tuples."""
        self._expire_now()
        return sum(row.tuple.estimated_size() for row in self._rows.values())

    # ------------------------------------------------------------------

    def sweep(self) -> int:
        """Force expiry processing; returns number of tuples expired."""
        return self._expire_now()

    def _expire_now(self) -> int:
        if self.lifetime is INFINITY:
            return 0
        now = self._now()
        if now < self._next_expiry:
            return 0
        expired = [
            key for key, row in self._rows.items() if row.expires_at <= now
        ]
        for key in expired:
            row = self._rows.pop(key)
            self._index_discard(key, row)
            self.total_removals += 1
            self._notify_remove(row.tuple, RemoveReason.EXPIRED)
        # Recompute the bound from survivors; a stale (too-low) value
        # only costs one empty pass when that instant is reached.
        self._next_expiry = min(
            (row.expires_at for row in self._rows.values()),
            default=float("inf"),
        )
        return len(expired)

    def _stamp(self, key: PyTuple, row: _Row) -> None:
        """Record ``row``'s new place in the eviction order."""
        heap = self._evict_heap
        if heap is not None:
            if len(heap) >= self._evict_slack:
                self._evict_heap = None
            else:
                heappush(heap, (row.inserted_at, row.seq, key))

    def _enforce_size(self, limit: int, protect: PyTuple) -> None:
        rows = self._rows
        while len(rows) > limit:
            # Evict the least-recently (re-)inserted row: refreshing a
            # tuple keeps it alive, which is the soft-state contract the
            # Chord stabilization rules rely on.
            victim_key = self._pop_victim(protect)
            if victim_key is None:
                return
            row = rows.pop(victim_key)
            self._index_discard(victim_key, row)
            self.total_removals += 1
            self._notify_remove(row.tuple, RemoveReason.EVICTED)

    def _pop_victim(self, protect: PyTuple) -> Optional[PyTuple]:
        """Key of the live row with the least ``(inserted_at, seq)``
        other than ``protect``, or None if there is no other row."""
        rows = self._rows
        heap = self._evict_heap
        if heap is None:
            heap = self._evict_heap = [
                (row.inserted_at, row.seq, key) for key, row in rows.items()
            ]
            heapify(heap)
        held = victim = None
        while heap:
            stamp = heappop(heap)
            inserted_at, seq, key = stamp
            row = rows.get(key)
            if row is None or row.seq != seq or row.inserted_at != inserted_at:
                continue  # deleted, expired, replaced or refreshed since
            if key == protect:
                held = stamp
                continue
            victim = key
            break
        if held is not None:
            heappush(heap, held)
        return victim

    def _notify_insert(self, tup: Tuple, outcome: InsertOutcome) -> None:
        callbacks = self.on_insert
        if len(callbacks) == 1:
            # Hot path: exactly one observer (the owning node).  A lone
            # callback that mutates the list mid-call sees the same
            # behaviour a snapshot would give it.
            callbacks[0](tup, outcome)
        elif callbacks:
            for callback in list(callbacks):
                callback(tup, outcome)

    def _notify_remove(self, tup: Tuple, reason: RemoveReason) -> None:
        callbacks = self.on_remove
        if len(callbacks) == 1:
            callbacks[0](tup, reason)
        elif callbacks:
            for callback in list(callbacks):
                callback(tup, reason)


def _eq(a: Any, b: Any) -> bool:
    try:
        result = a == b
    except Exception:
        return False
    return result is True
