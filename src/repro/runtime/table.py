"""Soft-state tables.

A table is declared by ``materialize(name, lifetime, size, keys(...))``:
tuples expire ``lifetime`` seconds after their last (re-)insertion, the
table holds at most ``size`` tuples (least recently (re-)inserted
evicted first), and the ``keys`` positions form the primary key —
inserting a tuple whose key matches an existing row replaces that row.

Change callbacks drive the rest of the system: delta rule triggering,
event logging, and tupleTable reference counting all hang off
``on_insert`` / ``on_remove`` observers.

Row layout.  A row is its :class:`Tuple` plus one *stamp*.  ``_rows``
maps the primary key — the bare column value for a one-column key, a
tuple of values otherwise — to the tuple, in scan order (dict insertion
order: a key keeps its place while it is replaced or refreshed).
``_stamps`` maps the same key to ``(inserted_at, seq, key, rank)``:

- ``inserted_at`` is the time of the row's last (re-)insertion, and
  ``inserted_at + lifetime`` its deadline; the rare row restored with
  any other deadline keeps that one in ``_deadlines``;
- ``seq`` comes from a per-table counter on every insert that adds or
  replaces a row — not on a refresh, so a refreshed row keeps sorting
  before a row first inserted earlier at the same instant;
- ``rank`` is the ``seq`` the key drew when it entered the table, kept
  across replacements: the row's place in scan order, which is what
  index probes and expiry sort on.  Until a row is replaced it is the
  very int object ``seq`` is, so it costs one slot of the stamp.

The stamps also form one min-heap, ``_evict_heap`` (kept while the table
has a lifetime or a size bound), ordered by ``(inserted_at, seq)``.  That
one order serves both bounds: the size-bound victim is its least live
stamp, and because a deadline grows with ``inserted_at`` the rows due to
expire are a prefix of it, taken off the top and then notified in scan
order.  Stamps are never removed in place — a row deleted, replaced or
refreshed leaves its old stamp behind — and a stamp is live exactly when
it *is* the stamp ``_stamps`` holds for its key; expiry and eviction drop
dead ones as they meet them, and the heap is rebuilt from ``_stamps``
once it holds about twice as many stamps as live rows.

Secondary hash indexes (:class:`TableIndex`) accelerate join probes:
``index_on(positions)`` builds an index over an arbitrary column subset
which is then maintained automatically through every mutation path —
insert, replace, explicit delete, TTL expiry, and size-bound eviction.
``probe_index`` returns exactly the rows a full scan-and-filter would,
in the same relative order, so indexed and scanned evaluation are
observably identical (the differential harness in
``tests/runtime/test_join_differential.py`` enforces this).
"""

from __future__ import annotations

import enum
from heapq import heapify, heappop, heappush
from operator import itemgetter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple as PyTuple

from repro.errors import SchemaError
from repro.overlog.types import INFINITY
from repro.runtime.tuples import Tuple

INF = float("inf")
_RANK = itemgetter(3)  # a stamp's place in scan order


class InsertOutcome(enum.Enum):
    """What an insert did; only NEW and REPLACED count as changes."""

    NEW = "new"            # key was absent
    REPLACED = "replaced"  # key present with different values
    REFRESHED = "refreshed"  # identical tuple re-inserted (TTL renewed)


class RemoveReason(enum.Enum):
    """Why a tuple left the table (passed to on_remove observers)."""

    DELETED = "deleted"    # explicit delete (rule or API)
    EXPIRED = "expired"    # lifetime elapsed
    EVICTED = "evicted"    # displaced by the size bound
    REPLACED = "replaced"  # overwritten by a same-key insert


_NEW = InsertOutcome.NEW
_REPLACED = InsertOutcome.REPLACED
_REFRESHED = InsertOutcome.REFRESHED
_GONE_REPLACED = RemoveReason.REPLACED
_EVICTED = RemoveReason.EVICTED


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
        "positions", "_stamps", "_buckets", "_loose", "_memo", "probes",
        "rows_served",
    )

    def __init__(self, positions: PyTuple, stamps: Dict[Any, PyTuple]) -> None:
        self.positions = tuple(positions)
        # The owning table's stamps: a row's rank (scan order) is
        # ``stamps[key][3]``.
        self._stamps = stamps
        # index key -> {primary key: tuple}
        self._buckets: Dict[PyTuple, Dict[Any, Tuple]] = {}
        # primary key -> tuple, for rows with unhashable index keys
        self._loose: Dict[Any, Tuple] = {}
        # Probe memo: probe key -> candidate list, valid until the next
        # mutation.  Consecutive firings probe the same key over and
        # over (e.g. every succ-table probe at node n uses key (n,)),
        # so the sort-and-collect work is paid once per quiet stretch.
        self._memo: Dict[PyTuple, List[Tuple]] = {}
        # Probe counters for introspection and tests.
        self.probes = 0
        self.rows_served = 0

    def _project(self, tup: Tuple) -> PyTuple:
        values = tup.values
        return tuple(values[i] for i in self.positions)

    def add(self, key: Any, tup: Tuple) -> None:
        if self._memo:
            self._memo.clear()
        try:
            self._buckets.setdefault(self._project(tup), {})[key] = tup
        except IndexError:
            return  # row too short to match any pattern using this index
        except TypeError:
            self._loose[key] = tup

    def discard(self, key: Any, tup: Tuple) -> None:
        if self._memo:
            self._memo.clear()
        try:
            ikey = self._project(tup)
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

    def replace(self, key: Any, old: Tuple, new: Tuple) -> None:
        """Swap ``old`` for ``new``, both stored under primary key ``key``.

        When the indexed columns did not change — a monitored value
        refreshed under its key, the fan-in case — ``new`` takes the
        bucket slot ``old`` holds; otherwise (columns differ, or the row
        is too short or unhashable) it is a discard and an add.  Probes
        cannot tell the two apart: ``new`` inherits ``old``'s rank and
        :meth:`candidates` sorts on it.
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

    def _in_scan_order(self, rows: List[PyTuple]) -> List[Tuple]:
        """The tuples of ``(primary key, tuple)`` pairs, by rank (ranks
        are unique, so the sort never compares two tuples)."""
        if len(rows) < 2:
            return [rows[0][1]] if rows else []
        stamps = self._stamps
        ranked = [(stamps[key][3], tup) for key, tup in rows]
        ranked.sort()
        return [tup for _, tup in ranked]

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
            rows = [item for b in self._buckets.values() for item in b.items()]
            rows.extend(self._loose.items())
            result = self._in_scan_order(rows)
            self.rows_served += len(result)
            return result
        if cached is not None:
            self.rows_served += len(cached)
            return cached
        bucket = self._buckets.get(probe_key)
        rows = list(bucket.items()) if bucket else []
        if self._loose:
            rows.extend(self._loose.items())
        # Bucket order drifts from scan order when a replace moves a row
        # to another bucket, so always restore it.
        result = self._in_scan_order(rows)
        self.rows_served += len(result)
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
        self.key_positions = list(key_positions)
        # A C-level key projector: the bare value for one key column.
        self._key_get = itemgetter(*[k - 1 for k in key_positions])
        self._single_key = len(key_positions) == 1
        self._now = now
        self._rows: Dict[Any, Tuple] = {}
        self._stamps: Dict[Any, PyTuple] = {}
        # key -> deadline, for restored rows whose deadline is not
        # ``inserted_at + lifetime``.
        self._deadlines: Dict[Any, float] = {}
        self._seq = 0
        self._indexes: Dict[PyTuple, TableIndex] = {}
        # A lower bound on every live row's deadline: until the clock
        # reaches it, no table access needs an expiry pass.
        self._next_expiry = INF
        self._evict_heap: Optional[List[PyTuple]] = None
        self._evict_slack = 4
        self._ttl: Optional[float] = None
        self._limit: Optional[int] = None
        self.lifetime = lifetime
        self.max_size = max_size
        self.on_insert: List[Callable[[Tuple, InsertOutcome], None]] = []
        self.on_remove: List[Callable[[Tuple, RemoveReason], None]] = []
        # Fired on REFRESHED inserts (identical tuple re-inserted, TTL
        # renewed).  Kept separate from on_insert because refreshes are
        # not state *changes* — delta rules must not re-trigger — but
        # durability (the recovery WAL) must still see the new deadline.
        self.on_refresh: List[Callable[[Tuple, float], None]] = []
        # Lifetime counters for introspection (and see total_inserts).
        self.total_removals = 0
        self._restored = 0

    @property
    def total_inserts(self) -> int:
        """Inserts that added or replaced a row: every ``seq`` drawn but
        a restore's."""
        return self._seq - self._restored

    @property
    def lifetime(self) -> Any:
        """The declared lifetime (seconds, or INFINITY)."""
        return self._lifetime

    @lifetime.setter
    def lifetime(self, value: Any) -> None:
        self._lifetime = value
        self._ttl = None if value is INFINITY else float(value)
        # Deadlines moved: the next access recomputes the bound.
        self._next_expiry = INF if self._ttl is None or not self._rows else -INF
        self._keep_heap()

    @property
    def max_size(self) -> Any:
        """The declared size bound (a tuple count, or INFINITY)."""
        return self._max_size

    @max_size.setter
    def max_size(self, value: Any) -> None:
        self._max_size = value
        self._limit = None if value is INFINITY else int(value)
        self._keep_heap()

    def _keep_heap(self) -> None:
        """Hold the stamp heap exactly while a bound needs it."""
        if self._ttl is None and self._limit is None:
            self._evict_heap = None
        elif self._evict_heap is None:
            self._evict_heap = []
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap, in place, from the live stamps alone."""
        heap = self._evict_heap
        heap[:] = self._stamps.values()
        heapify(heap)
        live = len(heap)
        if self._limit is not None and self._limit < live:
            live = self._limit
        self._evict_slack = 2 * live + 4

    # ------------------------------------------------------------------

    def key_of(self, tup: Tuple) -> PyTuple:
        """The primary-key projection of ``tup``."""
        key = self._row_key(tup)
        return (key,) if self._single_key else key

    def _row_key(self, tup: Tuple) -> Any:
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
        now = self._now()
        if now >= self._next_expiry:
            self._expire(now)
        try:
            key = self._key_get(tup.values)
        except IndexError:
            raise SchemaError(
                f"tuple {tup!r} too short for key positions "
                f"{self.key_positions} of table {self.name!r}"
            )
        ttl = self._ttl
        expires = INF if ttl is None else now + ttl
        if expires < self._next_expiry:
            self._next_expiry = expires
        rows = self._rows
        stamps = self._stamps
        old = rows.get(key)
        if old is not None:
            stamp = stamps[key]
            if old.values == tup.values:  # both named after this table
                # REFRESHED.  The row keeps its seq, so it sorts before a
                # row first inserted earlier at this same instant.
                if stamp[0] != now:
                    stamps[key] = stamp = (now, stamp[1], key, stamp[3])
                    heap = self._evict_heap
                    if heap is not None:
                        if len(heap) < self._evict_slack:
                            heappush(heap, stamp)
                        else:
                            self._compact()
                if self._deadlines:
                    self._deadlines.pop(key, None)
                callbacks = self.on_refresh
                if len(callbacks) == 1:
                    callbacks[0](tup, expires)
                elif callbacks:
                    for callback in list(callbacks):
                        callback(tup, expires)
                return _REFRESHED
            # REPLACED: the new row keeps the key's dict slot and rank.
            self._seq = seq = self._seq + 1
            stamps[key] = stamp = (now, seq, key, stamp[3])
            rows[key] = tup
            heap = self._evict_heap
            if heap is not None:
                if len(heap) < self._evict_slack:
                    heappush(heap, stamp)
                else:
                    self._compact()
            if self._deadlines:
                self._deadlines.pop(key, None)
            for index in self._indexes.values():
                index.replace(key, old, tup)
            self.total_removals += 1
            # Observers are called on a snapshot of their list: one or two
            # (the usual case) are read into locals, more are copied, so a
            # callback that edits the list mid-call changes nothing here.
            callbacks = self.on_remove
            n = len(callbacks)
            if n == 1:
                callbacks[0](old, _GONE_REPLACED)
            elif n == 2:
                first, second = callbacks
                first(old, _GONE_REPLACED)
                second(old, _GONE_REPLACED)
            elif n:
                for callback in list(callbacks):
                    callback(old, _GONE_REPLACED)
            callbacks = self.on_insert
            n = len(callbacks)
            if n == 1:
                callbacks[0](tup, _REPLACED)
            elif n == 2:
                first, second = callbacks
                first(tup, _REPLACED)
                second(tup, _REPLACED)
            elif n:
                for callback in list(callbacks):
                    callback(tup, _REPLACED)
            return _REPLACED

        # NEW
        self._seq = seq = self._seq + 1
        stamps[key] = stamp = (now, seq, key, seq)
        rows[key] = tup
        heap = self._evict_heap
        if heap is not None:
            if len(heap) < self._evict_slack:
                heappush(heap, stamp)
            else:
                self._compact()
        indexes = self._indexes
        if indexes:
            for index in indexes.values():
                index.add(key, tup)
        limit = self._limit
        if limit is not None and len(rows) > limit:
            # Evict the least-recently (re-)inserted rows other than this
            # one: refreshing a tuple keeps it alive, which is the
            # soft-state contract the Chord stabilization rules rely on.
            while len(rows) > limit:
                held = oldest = None
                while heap:
                    oldest = heappop(heap)
                    victim = oldest[2]
                    if stamps.get(victim) is not oldest:
                        oldest = None  # deleted, replaced or refreshed since
                    elif victim is key or victim == key:
                        held = oldest
                        oldest = None
                    else:
                        break
                if held is not None:
                    heappush(heap, held)
                if oldest is None:
                    break
                gone = rows.pop(victim)
                del stamps[victim]
                if self._deadlines:
                    self._deadlines.pop(victim, None)
                for index in indexes.values():
                    index.discard(victim, gone)
                self.total_removals += 1
                callbacks = self.on_remove
                n = len(callbacks)
                if n == 1:
                    callbacks[0](gone, _EVICTED)
                elif n == 2:
                    first, second = callbacks
                    first(gone, _EVICTED)
                    second(gone, _EVICTED)
                elif n:
                    for callback in list(callbacks):
                        callback(gone, _EVICTED)
        callbacks = self.on_insert
        n = len(callbacks)
        if n == 1:
            callbacks[0](tup, _NEW)
        elif n == 2:
            first, second = callbacks
            first(tup, _NEW)
            second(tup, _NEW)
        elif n:
            for callback in list(callbacks):
                callback(tup, _NEW)
        return _NEW

    def delete(self, tup: Tuple) -> bool:
        """Remove the row whose key matches ``tup``; True if removed."""
        now = self._now()
        if now >= self._next_expiry:
            self._expire(now)
        key = self._row_key(tup)
        old = self._rows.get(key)
        if old is None or old != tup:
            return False
        self._remove(key, RemoveReason.DELETED)
        return True

    def delete_matching(self, values: List[Any]) -> int:
        """Delete all rows matching a pattern with None wildcards.

        Used by OverLog ``delete`` rules: unbound head variables become
        None entries and match any value.  Returns the removal count.
        """
        now = self._now()
        if now >= self._next_expiry:
            self._expire(now)
        victims = []
        for key, tup in self._rows.items():
            if len(values) != len(tup.values):
                continue
            if all(
                pattern is None or _eq(pattern, actual)
                for pattern, actual in zip(values, tup.values)
            ):
                victims.append(key)
        for key in victims:
            self._remove(key, RemoveReason.DELETED)
        return len(victims)

    def _remove(self, key: Any, reason: RemoveReason) -> None:
        """Drop the row under ``key`` and tell the observers why."""
        tup = self._rows.pop(key)
        del self._stamps[key]
        if self._deadlines:
            self._deadlines.pop(key, None)
        for index in self._indexes.values():
            index.discard(key, tup)
        self.total_removals += 1
        callbacks = self.on_remove
        if len(callbacks) == 1:
            callbacks[0](tup, reason)
        elif callbacks:
            for callback in list(callbacks):
                callback(tup, reason)

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
        key = self._row_key(tup)
        if inserted_at is None:
            inserted_at = now
        stamps = self._stamps
        old = self._rows.get(key)
        self._seq = seq = self._seq + 1
        self._restored += 1
        if old is not None:
            rank = stamps[key][3]
            for index in self._indexes.values():
                index.discard(key, old)
        else:
            rank = seq
        self._rows[key] = tup
        stamps[key] = stamp = (inserted_at, seq, key, rank)
        heap = self._evict_heap
        if heap is not None:
            if len(heap) < self._evict_slack:
                heappush(heap, stamp)
            else:
                self._compact()
        for index in self._indexes.values():
            index.add(key, tup)
        ttl = self._ttl
        if expires_at == (INF if ttl is None else inserted_at + ttl):
            self._deadlines.pop(key, None)
        else:
            self._deadlines[key] = expires_at
        if ttl is not None and expires_at < self._next_expiry:
            self._next_expiry = expires_at
        return True

    def snapshot_rows(self) -> List[PyTuple]:
        """Live rows with their timing metadata, for checkpointing:
        ``(tuple, inserted_at, expires_at)`` triples in scan order."""
        now = self._now()
        if now >= self._next_expiry:
            self._expire(now)
        ttl = self._ttl
        stamps = self._stamps
        deadlines = self._deadlines
        out = []
        for key, tup in self._rows.items():
            inserted_at = stamps[key][0]
            if key in deadlines:
                expires_at = deadlines[key]
            else:
                expires_at = INF if ttl is None else inserted_at + ttl
            out.append((tup, inserted_at, expires_at))
        return out

    def restore_remove(self, tup: Tuple) -> bool:
        """Silently drop the row matching ``tup`` during WAL replay
        (the removal was already observed pre-crash; replaying it must
        not re-fire observers)."""
        key = self._row_key(tup)
        old = self._rows.get(key)
        if old is None or old != tup:
            return False
        del self._rows[key]
        del self._stamps[key]
        self._deadlines.pop(key, None)
        for index in self._indexes.values():
            index.discard(key, old)
        return True

    # ------------------------------------------------------------------

    def scan(self) -> Iterator[Tuple]:
        """Iterate live tuples (expired rows are dropped first)."""
        now = self._now()
        if now >= self._next_expiry:
            self._expire(now)
        # Snapshot so rules may insert/delete while iterating.
        return iter(list(self._rows.values()))

    def lookup_key(self, key_values: PyTuple) -> Optional[Tuple]:
        """Fetch the live row with this primary key, if any."""
        now = self._now()
        if now >= self._next_expiry:
            self._expire(now)
        key = tuple(key_values)
        if self._single_key:
            if len(key) != 1:
                return None
            key = key[0]
        return self._rows.get(key)

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
            index = TableIndex(canon, self._stamps)
            for key, tup in self._rows.items():
                index.add(key, tup)
            self._indexes[canon] = index
        return index

    def indexes(self) -> List[TableIndex]:
        """The table's secondary indexes (for introspection)."""
        return list(self._indexes.values())

    def probe_index(self, index: TableIndex, key_values: PyTuple) -> List[Tuple]:
        """Live tuples whose ``index.positions`` columns may equal
        ``key_values``, in scan order (expired rows are dropped first,
        exactly as :meth:`scan` does)."""
        now = self._now()
        if now >= self._next_expiry:
            self._expire(now)
        return index.candidates(key_values)

    def __len__(self) -> int:
        now = self._now()
        if now >= self._next_expiry:
            self._expire(now)
        return len(self._rows)

    def __contains__(self, tup: Tuple) -> bool:
        now = self._now()
        if now >= self._next_expiry:
            self._expire(now)
        row = self._rows.get(self._row_key(tup))
        return row is not None and row == tup

    def estimated_bytes(self) -> int:
        """Approximate memory footprint of live tuples."""
        now = self._now()
        if now >= self._next_expiry:
            self._expire(now)
        return sum(tup.estimated_size() for tup in self._rows.values())

    # ------------------------------------------------------------------

    def sweep(self) -> int:
        """Force expiry processing; returns number of tuples expired."""
        now = self._now()
        if now < self._next_expiry:
            return 0
        return self._expire(now)

    def _expire(self, now: float) -> int:
        """Drop every row whose deadline is ``now`` or earlier.

        The due rows are taken off the top of the stamp heap, then
        removed and notified in scan order; the pass ends at the first
        live stamp not yet due, whose deadline becomes the next bound.
        """
        ttl = self._ttl
        if ttl is None:
            self._next_expiry = INF
            return 0
        heap = self._evict_heap
        stamps = self._stamps
        deadlines = self._deadlines
        due = []
        held = []
        upcoming = INF
        while heap:
            stamp = heap[0]
            key = stamp[2]
            if stamps.get(key) is not stamp:
                heappop(heap)
            elif deadlines and key in deadlines:
                held.append(heappop(heap))  # its own deadline rules it
            elif stamp[0] + ttl <= now:
                due.append(heappop(heap))
            else:
                upcoming = stamp[0] + ttl
                break
        for stamp in held:
            heappush(heap, stamp)
        for key, deadline in deadlines.items():
            if deadline <= now:
                due.append(stamps[key])
            elif deadline < upcoming:
                upcoming = deadline
        self._next_expiry = upcoming
        if due:
            due.sort(key=_RANK)
            for stamp in due:
                self._remove(stamp[2], RemoveReason.EXPIRED)
        return len(due)


def _eq(a: Any, b: Any) -> bool:
    try:
        result = a == b
    except Exception:
        return False
    return result is True
