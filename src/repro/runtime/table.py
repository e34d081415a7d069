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

A :class:`Ring` is the same relation kept as appended values, with no
object per row: what the four introspection relations are (see its
docstring; ``tests/runtime/test_table_properties.py`` runs it against
a :class:`Table`).
"""

from __future__ import annotations

import enum
from array import array
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

    def clear_observers(self) -> None:
        """Detach every observer (the node stopped)."""
        self.on_insert.clear()
        self.on_remove.clear()
        self.on_refresh.clear()

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
        canon = _canonical(self.name, positions)
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


class _SlotRanks:
    """What a :class:`TableIndex` over a ring reads as its stamps: a row's
    slot is its rank (slot order is scan order)."""

    __slots__ = ()

    def __getitem__(self, slot: int) -> PyTuple:
        return (None, None, None, slot)


_SLOT_RANKS = _SlotRanks()

# A ring keeps ``hash(key) * _SPREAD & _BITS`` per row, its key's
# *spread hash*, and its key map probes from that hash's low bits:
# multiplying by an odd number permutes the low bits, so keys that count
# up (``hash(n) == n``) land in distinct buckets rather than in one run.
_SPREAD = 0x9E3779B1
_BITS = (1 << 63) - 1


class Ring:
    """A bounded relation kept as appended values.

    The introspection relations (``ruleExec``, ``tupleTable``,
    ``tupleLog``, ``tableLog``) are written many times a firing and read
    rarely, so a ring keeps no object per row.  It answers every read
    :class:`Table` does — same rows, same order, same observer calls —
    and builds a :class:`Tuple` only for a caller that asks for one.

    Row layout.  A row lives in a *slot*; slots are handed out in
    order and never reused, so slot order is scan order, and a replaced
    or refreshed row keeps its slot.  ``_flat`` holds the rows' values
    slot-major and ``_ins`` each slot's ``inserted_at`` (None: the slot
    is dead); ``_meta`` holds three ints per slot, the seq of its last
    adding or replacing insert, the id of its queue entry and its key's
    spread hash (see ``_SPREAD``).  Slot
    ``s`` is at index ``s - _base`` of ``_ins`` (and at ``(s - _base) *
    w`` of ``_flat``, arity ``w``).  A dead slot's values are dropped at
    once; a run of dead slots at the front — rows leave a full ring in
    write order — is cut off by moving ``_base``, and when dead slots
    elsewhere outnumber the live ones :meth:`_compact` renumbers the
    rest.

    Bounds.  One *write-order queue* of ``(slot, entry id)`` pairs,
    ordered by ``(inserted_at, seq)`` exactly like :class:`Table`'s
    stamp heap, serves both bounds: the size-bound victim is its first
    live entry, and with one lifetime for every row the rows due to
    expire are a prefix of it.  A live write appends — the clock never
    goes back, and a new seq is the largest — so only a refresh landing
    among rows written at the same instant, or a restore with an older
    ``inserted_at``, inserts further in.  An entry is live while its id
    is its slot's; the ones a replace, refresh or removal leaves behind
    are skipped as they are met, the read front is cut off as it grows,
    and the queue is rebuilt when they outnumber the live ones by half.

    Keys.  The key map is an open-addressing hash table in one array,
    ``_bucket``, holding ``slot + 1`` (0: empty), at most half full and
    probed linearly; a slot's spread hash and its own values confirm its
    key, so no key object, and no int object, is kept per row.  A
    removal moves back the entries after it that belong nearer their
    home bucket, so no deleted marker is left to lengthen probes.

    Observers.  ``on_insert`` / ``on_remove`` / ``on_refresh`` take
    tuples, as a table's do; a ring builds them only while one is
    registered.  ``on_append(values, replaced)`` and
    ``on_drop(values, reason)`` take the row's values: a replace is one
    ``on_append`` call with the values it replaced (None for a new
    row), and ``on_drop`` sees every other removal.  Values observers
    hear of a change before tuple observers do; a replace tells the
    tuple observers its removal first, as a table does.  ``evicted``
    counts size-bound evictions; ``on_rotate`` is called at the first.
    """

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
        self._key_get = itemgetter(*[k - 1 for k in key_positions])
        self._single_key = len(key_positions) == 1
        self._now = now
        # The arity every row has: the first row's.
        self._width = 0
        self._blank: PyTuple = ()
        self._flat: List[Any] = []
        self._ins: List[Any] = []
        self._meta = array("q")
        # Slot numbers: the first held (``_base``) and the next one;
        # live rows, and the dead slots that make :meth:`_reclaim` look.
        self._base = 0
        self._slots = 0
        self._live = 0
        self._slack = 32
        self._queue = array("q")
        # Entries in the queue, the first one unread, the size that
        # triggers a rebuild, and the last entry id handed out.
        self._entries = 0
        self._qhead = 0
        self._qroom = 32
        self._eid = 0
        # The largest stamp ever queued: a new one above it appends.
        self._last_ins: Any = -INF
        self._last_seq = 0
        self._bucket = array("q")
        self._mask = 0
        self._rehash()
        # slot -> deadline, for restored rows whose deadline is not
        # ``inserted_at + lifetime``.
        self._deadlines: Dict[int, float] = {}
        self._seq = 0
        self._restored = 0
        # Secondary indexes are TableIndexes keyed by slot, holding the
        # rows' tuples (built for an indexed ring's writes only).
        self._indexes: Dict[PyTuple, TableIndex] = {}
        self._next_expiry = INF
        self._ttl: Optional[float] = None
        self._limit: Optional[int] = None
        self.lifetime = lifetime
        self.max_size = max_size
        self.on_insert: List[Callable[[Tuple, InsertOutcome], None]] = []
        self.on_remove: List[Callable[[Tuple, RemoveReason], None]] = []
        self.on_refresh: List[Callable[[Tuple, float], None]] = []
        self.on_append: List[Callable[[PyTuple, Optional[PyTuple]], None]] = []
        self.on_drop: List[Callable[[PyTuple, RemoveReason], None]] = []
        self.total_removals = 0
        self.evicted = 0
        self.on_rotate: Optional[Callable[[], None]] = None

    @property
    def total_inserts(self) -> int:
        """Inserts that added or replaced a row (see :class:`Table`)."""
        return self._seq - self._restored

    @property
    def lifetime(self) -> Any:
        """The declared lifetime (seconds, or INFINITY)."""
        return self._lifetime

    @lifetime.setter
    def lifetime(self, value: Any) -> None:
        self._lifetime = value
        self._ttl = None if value is INFINITY else float(value)
        self._next_expiry = INF if self._ttl is None or not self._live else -INF

    @property
    def max_size(self) -> Any:
        """The declared size bound (a tuple count, or INFINITY)."""
        return self._max_size

    @max_size.setter
    def max_size(self, value: Any) -> None:
        self._max_size = value
        self._limit = None if value is INFINITY else int(value)

    def clear_observers(self) -> None:
        """Detach every observer (the node stopped)."""
        for callbacks in (
            self.on_insert, self.on_remove, self.on_refresh, self.on_append,
            self.on_drop,
        ):
            callbacks.clear()

    # ------------------------------------------------------------------
    # Rows, slots and keys

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

    def _shape(self, values: PyTuple) -> None:
        """Fix the arity at the first row; refuse any other later."""
        if self._width:
            raise SchemaError(
                f"ring {self.name!r} holds rows of {self._width} values, "
                f"not {len(values)}"
            )
        if max(self.key_positions) > len(values):
            raise SchemaError(
                f"tuple {Tuple(self.name, values)!r} too short for key "
                f"positions {self.key_positions} of table {self.name!r}"
            )
        self._width = len(values)
        self._blank = (None,) * len(values)

    def _values(self, slot: int) -> PyTuple:
        w = self._width
        at = (slot - self._base) * w
        return tuple(self._flat[at : at + w])

    def _live_rows(self) -> Iterator[PyTuple]:
        """``(slot, values)`` of every live row, in scan order."""
        w = self._width
        if not w:
            return iter(())
        flat = self._flat
        rows = zip(*[flat[j::w] for j in range(w)])
        return (
            (slot, values)
            for slot, (values, inserted) in enumerate(
                zip(rows, self._ins), self._base
            )
            if inserted is not None
        )

    def _find(self, key: Any) -> int:
        """The live slot holding ``key``, or -1 (:meth:`append` probes
        inline)."""
        hashed = hash(key) * _SPREAD & _BITS
        bucket = self._bucket
        meta = self._meta
        mask = self._mask
        # The spread hash of the slot a bucket holds (``held``, the slot
        # plus one) is ``meta[3 * held + first]``.
        first = -1 - 3 * self._base
        at = hashed & mask
        while True:
            held = bucket[at]
            if not held:
                return -1
            if meta[3 * held + first] == hashed and self._key_at(held - 1) == key:
                return held - 1
            at = (at + 1) & mask

    def _key_at(self, slot: int) -> Any:
        w = self._width
        at = (slot - self._base) * w
        return self._key_get(self._flat[at : at + w])

    def _rehash(self) -> None:
        """Rebuild the key map from the live slots, at most a quarter
        full (it is rebuilt again past half full)."""
        size = 8
        while size < 4 * self._live:
            size *= 2
        bucket = self._bucket = array("q", bytes(8 * size))
        mask = self._mask = size - 1
        meta = self._meta
        for place, inserted in enumerate(self._ins, 1):
            if inserted is not None:
                at = meta[3 * place - 1] & mask
                while bucket[at]:
                    at = (at + 1) & mask
                bucket[at] = place + self._base

    def _hold(self, hashed: int, slot: int) -> None:
        """Map a key the map lacks, of spread hash ``hashed``, to
        ``slot``."""
        bucket = self._bucket
        mask = self._mask
        at = hashed & mask
        while bucket[at]:
            at = (at + 1) & mask
        bucket[at] = slot + 1
        if 2 * self._live > mask:
            self._rehash()

    def _add(self, values: PyTuple, key: Any, inserted_at: Any, seq: int) -> int:
        """Put a restored row with a key the ring lacks in a fresh slot
        and queue it (:meth:`append` does the same inline)."""
        if self._slots - self._base - self._live > self._slack:
            self._reclaim()
        slot = self._slots
        self._slots = slot + 1
        self._live += 1
        self._flat += values
        self._ins += (inserted_at,)
        hashed = hash(key) * _SPREAD & _BITS
        self._meta.extend((seq, 0, hashed))
        self._hold(hashed, slot)
        self._enqueue(slot)
        return slot

    # ------------------------------------------------------------------
    # The write-order queue

    def _enqueue(self, slot: int) -> None:
        """Queue ``slot``'s current stamp in ``(inserted_at, seq)`` order."""
        self._eid = eid = self._eid + 1
        meta = self._meta
        base = self._base
        at = 3 * (slot - base)
        meta[at + 1] = eid
        ins = self._ins[slot - base]
        seq = meta[at]
        last = self._last_ins
        if ins > last or (ins == last and seq > self._last_seq):
            self._last_ins = ins
            self._last_seq = seq
            self._queue.extend((slot, eid))
        else:
            # Walk back past the live entries that sort after this stamp.
            queue = self._queue
            stamps = self._ins
            at = self._entries
            while at > self._qhead:
                other = queue[2 * at - 2] - base
                if other >= 0 and meta[3 * other + 1] == queue[2 * at - 1]:
                    other_ins = stamps[other]
                    if other_ins < ins or (
                        other_ins == ins and meta[3 * other] < seq
                    ):
                        break
                at -= 1
            queue[2 * at : 2 * at] = array("q", (slot, eid))
        self._entries += 1
        if self._entries >= self._qroom:
            self._requeue()

    def _requeue(self) -> None:
        """Cut off the read front of the queue, and drop its stale
        entries once they outnumber the live ones by half."""
        if self._qhead:
            del self._queue[: 2 * self._qhead]
            self._entries -= self._qhead
            self._qhead = 0
        live = self._live
        if self._entries > live + (live >> 1) + 32:
            queue = self._queue
            meta = self._meta
            base = self._base
            self._queue = array("q", [
                value
                for at in range(0, 2 * self._entries, 2)
                if queue[at] >= base
                and meta[3 * (queue[at] - base) + 1] == queue[at + 1]
                for value in (queue[at], queue[at + 1])
            ])
            self._entries = len(self._queue) // 2
        self._qroom = self._entries + (live >> 3) + 32

    def _reclaim(self) -> None:
        """Give back dead slots: a dead run at the front by moving the
        base, the rest by compacting once they outnumber the live rows."""
        ins = self._ins
        lead = 0
        dead = len(ins) - self._live
        while lead < dead and ins[lead] is None:
            lead += 1
        if 2 * lead >= dead:
            w = self._width
            del self._flat[: lead * w]
            del ins[:lead]
            del self._meta[: 3 * lead]
            self._base += lead
            dead -= lead
        if dead > self._live + 32:
            self._compact()
            dead = 0
        self._slack = dead + (self._live >> 3) + 32

    def _compact(self) -> None:
        """Drop the dead slots, renumbering the live ones from 0 in scan
        order."""
        w = self._width
        flat = self._flat
        ins = self._ins
        meta = self._meta
        base = self._base
        alive = [at for at, inserted in enumerate(ins) if inserted is not None]
        renumber = {base + at: new for new, at in enumerate(alive)}
        compact: List[Any] = []
        packed = array("q")
        for at in alive:
            compact += flat[at * w : at * w + w]
            packed += meta[3 * at : 3 * at + 3]
        queue = self._queue
        self._queue = array("q", [
            value
            for at in range(2 * self._qhead, 2 * self._entries, 2)
            if queue[at] >= base
            and meta[3 * (queue[at] - base) + 1] == queue[at + 1]
            for value in (renumber[queue[at]], queue[at + 1])
        ])
        self._entries = len(self._queue) // 2
        self._qhead = 0
        self._qroom = self._entries + (len(alive) >> 3) + 32
        self._flat = compact
        self._ins = [ins[at] for at in alive]
        self._meta = packed
        self._base = 0
        self._slots = len(alive)
        self._rehash()
        if self._deadlines:
            self._deadlines = {
                renumber[slot]: deadline
                for slot, deadline in self._deadlines.items()
            }
        for index in self._indexes.values():
            self._fill(index)

    # ------------------------------------------------------------------
    # Writes

    def insert(self, tup: Tuple) -> InsertOutcome:
        """Insert/refresh ``tup``, exactly as :meth:`Table.insert`."""
        if tup.name != self.name:
            raise SchemaError(
                f"tuple {tup.name!r} inserted into table {self.name!r}"
            )
        return self.append(tup.values, tup)

    def append(
        self, values: PyTuple, tup: Optional[Tuple] = None
    ) -> InsertOutcome:
        """Insert/refresh the row ``values``; fires observers; enforces
        bounds.  ``tup``, if the caller has one, is the :class:`Tuple`
        of these values that tuple observers get."""
        now = self._now()
        if now >= self._next_expiry:
            self._expire(now)
        if len(values) != self._width:
            self._shape(values)
        # Dead slots are given back before the probe: a compaction
        # renumbers slots and rebuilds the key map.
        if self._slots - self._base - self._live > self._slack:
            self._reclaim()
        key = self._key_get(values)
        ttl = self._ttl
        expires = INF if ttl is None else now + ttl
        if expires < self._next_expiry:
            self._next_expiry = expires
        # _find inline: a new key takes the empty bucket it ends at.
        hashed = hash(key) * _SPREAD & _BITS
        bucket = self._bucket
        meta = self._meta
        mask = self._mask
        first = -1 - 3 * self._base
        at = hashed & mask
        while True:
            held = bucket[at]
            if not held:
                break
            if meta[3 * held + first] == hashed and self._key_at(held - 1) == key:
                return self._rewrite(held - 1, values, tup, now, expires)
            at = (at + 1) & mask

        # NEW: :meth:`_add` inline, and the stamp is the largest yet
        # unless a restore queued a later inserted_at.
        self._seq = seq = self._seq + 1
        slot = self._slots
        self._slots = slot + 1
        self._live += 1
        self._flat += values
        self._ins += (now,)
        if now >= self._last_ins:
            self._eid = eid = self._eid + 1
            meta.extend((seq, eid, hashed))
            self._last_ins = now
            self._last_seq = seq
            self._queue.extend((slot, eid))
            self._entries += 1
            if self._entries >= self._qroom:
                self._requeue()
        else:
            meta.extend((seq, 0, hashed))
            self._enqueue(slot)
        # Mapped once its hash is in place (a rebuild reads it).
        bucket[at] = slot + 1
        if 2 * self._live > mask:
            self._rehash()
        if self._indexes:
            if tup is None:
                tup = Tuple(self.name, values)
            for index in self._indexes.values():
                index.add(slot, tup)
        limit = self._limit
        if limit is not None and self._live > limit:
            self._evict(slot, limit)
        callbacks = self.on_append
        if len(callbacks) == 1:
            callbacks[0](values, None)
        elif callbacks:
            for callback in tuple(callbacks):
                callback(values, None)
        callbacks = self.on_insert
        if callbacks:
            if tup is None:
                tup = Tuple(self.name, values)
            for callback in tuple(callbacks):
                callback(tup, _NEW)
        return _NEW

    def _rewrite(
        self,
        slot: int,
        values: PyTuple,
        tup: Optional[Tuple],
        now: float,
        expires: float,
    ) -> InsertOutcome:
        """Write ``values`` over the live row in ``slot``: a refresh, or
        a replace that keeps the slot (see :meth:`Table.insert`)."""
        w = self._width
        place = slot - self._base
        at = place * w
        flat = self._flat
        old = tuple(flat[at : at + w])
        if old == values:
            # REFRESHED: the row keeps its seq.
            if self._ins[place] != now:
                self._ins[place] = now
                self._enqueue(slot)
            if self._deadlines:
                self._deadlines.pop(slot, None)
            callbacks = self.on_refresh
            if callbacks:
                if tup is None:
                    tup = Tuple(self.name, values)
                for callback in tuple(callbacks):
                    callback(tup, expires)
            return _REFRESHED
        # REPLACED
        self._seq = seq = self._seq + 1
        self._meta[3 * place] = seq
        self._ins[place] = now
        flat[at : at + w] = values
        self._enqueue(slot)
        if self._deadlines:
            self._deadlines.pop(slot, None)
        if self._indexes:
            if tup is None:
                tup = Tuple(self.name, values)
            gone = Tuple(self.name, old)
            for index in self._indexes.values():
                index.replace(slot, gone, tup)
        self.total_removals += 1
        callbacks = self.on_remove
        if callbacks:
            gone = Tuple(self.name, old)
            for callback in tuple(callbacks):
                callback(gone, _GONE_REPLACED)
        callbacks = self.on_append
        if len(callbacks) == 1:
            callbacks[0](values, old)
        elif callbacks:
            for callback in tuple(callbacks):
                callback(values, old)
        callbacks = self.on_insert
        if callbacks:
            if tup is None:
                tup = Tuple(self.name, values)
            for callback in tuple(callbacks):
                callback(tup, _REPLACED)
        return _REPLACED

    def _evict(self, keep: int, limit: int) -> None:
        """Evict the least recently (re-)inserted rows but ``keep``
        until the bound holds (see :meth:`Table.insert`)."""
        while self._live > limit:
            queue = self._queue
            meta = self._meta
            base = self._base
            at = self._qhead
            end = self._entries
            # The first live entry but ``keep``'s; the stale ones before
            # it are read past for good.
            while True:
                if at == end:
                    return
                slot = queue[2 * at]
                if slot >= base and meta[3 * (slot - base) + 1] == queue[2 * at + 1]:
                    if slot != keep:
                        break
                elif at == self._qhead:
                    self._qhead = at + 1
                at += 1
            if at == self._qhead:
                self._qhead = at + 1
            self.evicted += 1
            if self.evicted == 1 and self.on_rotate is not None:
                self.on_rotate()
            self._remove(slot, _EVICTED)

    def delete(self, tup: Tuple) -> bool:
        """Remove the row whose key matches ``tup``; True if removed."""
        now = self._now()
        if now >= self._next_expiry:
            self._expire(now)
        slot = self._find(self._row_key(tup))
        if slot < 0 or tup.name != self.name or self._values(slot) != tup.values:
            return False
        self._remove(slot, RemoveReason.DELETED)
        return True

    def delete_key(self, key_values: PyTuple) -> bool:
        """Remove the live row with this primary key; True if removed."""
        now = self._now()
        if now >= self._next_expiry:
            self._expire(now)
        slot = self._slot_of(key_values)
        if slot < 0:
            return False
        self._remove(slot, RemoveReason.DELETED)
        return True

    def delete_matching(self, values: List[Any]) -> int:
        """Delete all rows matching a pattern with None wildcards (see
        :meth:`Table.delete_matching`)."""
        now = self._now()
        if now >= self._next_expiry:
            self._expire(now)
        victims = []
        if len(values) == self._width:
            for slot, row in self._live_rows():
                if all(
                    pattern is None or _eq(pattern, actual)
                    for pattern, actual in zip(values, row)
                ):
                    victims.append(slot)
        for slot in victims:
            self._remove(slot, RemoveReason.DELETED)
        return len(victims)

    def _remove(self, slot: int, reason: Optional[RemoveReason]) -> None:
        """Drop the row in ``slot`` and tell the observers why — or, with
        no reason (a WAL replay), no one."""
        w = self._width
        place = slot - self._base
        at = place * w
        flat = self._flat
        values = tuple(flat[at : at + w])
        flat[at : at + w] = self._blank
        self._ins[place] = None
        meta = self._meta
        meta[3 * place + 1] = 0  # no queue entry is its
        self._live -= 1
        # Empty the key's bucket, then move back each entry after it,
        # up to the next empty bucket, whose probe starts at or before
        # the gap.
        bucket = self._bucket
        mask = self._mask
        first = -1 - 3 * self._base
        gap = meta[3 * place + 2] & mask
        while bucket[gap] != slot + 1:
            gap = (gap + 1) & mask
        at = (gap + 1) & mask
        held = bucket[at]
        while held:
            if (at - meta[3 * held + first]) & mask >= (at - gap) & mask:
                bucket[gap] = held
                gap = at
            at = (at + 1) & mask
            held = bucket[at]
        bucket[gap] = 0
        if self._deadlines:
            self._deadlines.pop(slot, None)
        if self._indexes:
            gone = Tuple(self.name, values)
            for index in self._indexes.values():
                index.discard(slot, gone)
        if reason is None:
            return
        self.total_removals += 1
        callbacks = self.on_drop
        if len(callbacks) == 1:
            callbacks[0](values, reason)
        elif callbacks:
            for callback in tuple(callbacks):
                callback(values, reason)
        callbacks = self.on_remove
        if callbacks:
            gone = Tuple(self.name, values)
            for callback in tuple(callbacks):
                callback(gone, reason)

    # ------------------------------------------------------------------
    # Crash-recovery replay (see Table)

    def restore(
        self,
        tup: Tuple,
        expires_at: float,
        inserted_at: Optional[float] = None,
    ) -> bool:
        """Silently (re)load a row during replay (see :meth:`Table.restore`)."""
        if tup.name != self.name:
            raise SchemaError(
                f"tuple {tup.name!r} restored into table {self.name!r}"
            )
        now = self._now()
        if expires_at <= now:
            return False
        values = tup.values
        if len(values) != self._width:
            self._shape(values)
        key = self._key_get(values)
        if inserted_at is None:
            inserted_at = now
        self._seq = seq = self._seq + 1
        self._restored += 1
        slot = self._find(key)
        if slot >= 0:
            w = self._width
            if self._indexes:
                old = Tuple(self.name, self._values(slot))
                for index in self._indexes.values():
                    index.discard(slot, old)
            at = slot - self._base
            self._flat[at * w : at * w + w] = values
            self._meta[3 * at] = seq
            self._ins[at] = inserted_at
            self._enqueue(slot)
        else:
            slot = self._add(values, key, inserted_at, seq)
        if self._indexes:
            for index in self._indexes.values():
                index.add(slot, tup)
        ttl = self._ttl
        if expires_at == (INF if ttl is None else inserted_at + ttl):
            self._deadlines.pop(slot, None)
        else:
            self._deadlines[slot] = expires_at
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
        deadlines = self._deadlines
        name = self.name
        out = []
        for slot, values in self._live_rows():
            inserted_at = self._ins[slot - self._base]
            if slot in deadlines:
                expires_at = deadlines[slot]
            else:
                expires_at = INF if ttl is None else inserted_at + ttl
            out.append((Tuple(name, values), inserted_at, expires_at))
        return out

    def restore_remove(self, tup: Tuple) -> bool:
        """Silently drop the row matching ``tup`` during WAL replay."""
        slot = self._find(self._row_key(tup))
        if slot < 0 or tup.name != self.name or self._values(slot) != tup.values:
            return False
        self._remove(slot, None)
        return True

    # ------------------------------------------------------------------
    # Reads

    def _slot_of(self, key_values: PyTuple) -> int:
        key = tuple(key_values)
        if self._single_key:
            if len(key) != 1:
                return -1
            key = key[0]
        return self._find(key)

    def scan(self) -> Iterator[Tuple]:
        """Iterate live tuples (expired rows are dropped first)."""
        now = self._now()
        if now >= self._next_expiry:
            self._expire(now)
        name = self.name
        return iter([Tuple(name, values) for _, values in self._live_rows()])

    def select(self, position: int, value: Any) -> List[PyTuple]:
        """The values of the live rows whose column ``position`` (0-based)
        equals ``value``, in scan order — read off the column, with no
        tuple built for the rows that do not match."""
        now = self._now()
        if now >= self._next_expiry:
            self._expire(now)
        w = self._width
        if not w:
            return []
        column = self._flat[position::w]
        ins = self._ins
        out = []
        at = -1
        try:
            while True:
                at = column.index(value, at + 1)
                if ins[at] is not None:
                    out.append(self._values(at + self._base))
        except ValueError:
            return out

    def lookup_key(self, key_values: PyTuple) -> Optional[Tuple]:
        """Fetch the live row with this primary key, if any."""
        now = self._now()
        if now >= self._next_expiry:
            self._expire(now)
        slot = self._slot_of(key_values)
        return None if slot < 0 else Tuple(self.name, self._values(slot))

    def index_on(self, positions: List[int]) -> TableIndex:
        """Get or build a secondary index (see :meth:`Table.index_on`)."""
        canon = _canonical(self.name, positions)
        index = self._indexes.get(canon)
        if index is None:
            index = TableIndex(canon, _SLOT_RANKS)
            self._fill(index)
            self._indexes[canon] = index
        return index

    def _fill(self, index: TableIndex) -> None:
        """(Re)load ``index`` from the live rows, keyed by slot."""
        index._buckets.clear()
        index._loose.clear()
        index._memo.clear()
        name = self.name
        for slot, values in self._live_rows():
            index.add(slot, Tuple(name, values))

    def indexes(self) -> List[TableIndex]:
        """The ring's secondary indexes (for introspection)."""
        return list(self._indexes.values())

    def probe_index(self, index: TableIndex, key_values: PyTuple) -> List[Tuple]:
        """Live tuples whose ``index.positions`` columns may equal
        ``key_values``, in scan order (expired rows dropped first)."""
        now = self._now()
        if now >= self._next_expiry:
            self._expire(now)
        return index.candidates(key_values)

    def __len__(self) -> int:
        now = self._now()
        if now >= self._next_expiry:
            self._expire(now)
        return self._live

    def __contains__(self, tup: Tuple) -> bool:
        now = self._now()
        if now >= self._next_expiry:
            self._expire(now)
        slot = self._find(self._row_key(tup))
        return slot >= 0 and tup.name == self.name and self._values(slot) == tup.values

    def estimated_bytes(self) -> int:
        """Approximate memory footprint of live tuples (as a table's)."""
        now = self._now()
        if now >= self._next_expiry:
            self._expire(now)
        name = self.name
        return sum(
            Tuple(name, values).estimated_size() for _, values in self._live_rows()
        )

    # ------------------------------------------------------------------

    def sweep(self) -> int:
        """Force expiry processing; returns number of tuples expired."""
        now = self._now()
        if now < self._next_expiry:
            return 0
        return self._expire(now)

    def _expire(self, now: float) -> int:
        """Drop every row whose deadline is ``now`` or earlier: the
        queue's due prefix plus the due restored deadlines, removed and
        notified in scan order (see :meth:`Table._expire`)."""
        ttl = self._ttl
        if ttl is None:
            self._next_expiry = INF
            return 0
        queue = self._queue
        meta = self._meta
        ins = self._ins
        base = self._base
        deadlines = self._deadlines
        due = []
        upcoming = INF
        lead = True  # every entry so far is stale or due
        at = self._qhead
        while at < self._entries:
            slot = queue[2 * at]
            place = slot - base
            if place < 0 or meta[3 * place + 1] != queue[2 * at + 1]:
                pass
            elif deadlines and slot in deadlines:
                lead = False  # its own deadline rules it
            elif ins[place] + ttl <= now:
                due.append(slot)
            else:
                upcoming = ins[place] + ttl
                break
            at += 1
            if lead:
                self._qhead = at
        for slot, deadline in deadlines.items():
            if deadline <= now:
                due.append(slot)
            elif deadline < upcoming:
                upcoming = deadline
        self._next_expiry = upcoming
        if due:
            due.sort()
            for slot in due:
                self._remove(slot, RemoveReason.EXPIRED)
        return len(due)


def _canonical(name: str, positions: List[int]) -> PyTuple:
    """Index positions sorted and deduplicated (and checked)."""
    canon = tuple(sorted({int(p) for p in positions}))
    if not canon:
        raise SchemaError(f"table {name!r}: an index needs at least one column")
    if canon[0] < 0:
        raise SchemaError(
            f"table {name!r}: index positions are 0-based "
            f"column offsets, got {positions!r}"
        )
    return canon


def _eq(a: Any, b: Any) -> bool:
    try:
        result = a == b
    except Exception:
        return False
    return result is True
