"""The ``tupleTable``: tuple identity, memoization, and refcounting.

Each node assigns node-unique IDs to the tuples it observes (tuples are
immutable, so identity is content-addressed per node).  The mapping is
exposed as the queryable ``tupleTable`` relation with the paper's
schema::

    tupleTable@NAddr(LocalID, SrcAddr, SrcTID, LocSpec)

- ``SrcAddr``/``SrcTID`` tie a received tuple to its identity on the
  sending node (the sender piggybacks its local ID on the wire);
- ``LocSpec`` is where the tuple lives — the destination for sent
  tuples, the local address otherwise.

Rows are reference-counted by ``ruleExec`` entries: a row (and its
memoized contents) is discarded when the last referring ``ruleExec``
row is removed, or when its own lifetime expires — exactly the paper's
flushing policy.  tupleTable rows are not themselves registered in the
tupleTable.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Dict, List, Optional, Tuple as PyTuple

from repro.overlog.ast import Materialize
from repro.overlog.types import INFINITY
from repro.runtime.node import P2Node
from repro.runtime.table import RemoveReason
from repro.runtime.tuples import Tuple

TUPLE_TABLE = "tupleTable"


class TupleRegistry:
    """Per-node tuple identity and the backing ``tupleTable`` relation."""

    def __init__(
        self,
        node: P2Node,
        lifetime: Any = 120.0,
        max_entries: Any = 100000,
    ) -> None:
        self._node = node
        self._address = node.address
        self._now = node.now
        self._table = node.store.ring(
            Materialize(TUPLE_TABLE, lifetime, max_entries, [2])
        )
        self._append = self._table.append
        self._table.on_drop.append(self._row_removed)
        self._ids: Dict[Tuple, int] = {}
        self._memo: Dict[int, Tuple] = {}
        self._refs: Dict[int, int] = {}
        self._counter = 0
        # (src, wire mid) -> arrival time of the messages already
        # accounted for, oldest first: a retransmitted or
        # fabric-duplicated message must not re-write tupleTable rows
        # (each re-write replaces the row and re-fires its observers —
        # double-counting the arrival in every downstream monitor).
        # A pair is forgotten once the row it wrote has expired: a
        # duplicate that late has nothing left to double-write.
        self._seen_mids: "OrderedDict[PyTuple, float]" = OrderedDict()
        self._mid_lifetime = None if lifetime is INFINITY else float(lifetime)
        self.duplicates_ignored = 0
        #: Observers of identity-row writes: ``(tid, src, src_tid,
        #: loc_spec, tup)`` per ``tupleTable`` row written, where
        #: ``tup`` is the tuple on the write that mints ``tid`` and None
        #: on every later write of it.  The forensic event store
        #: (:mod:`repro.store`) taps this to persist tuple identity and
        #: each payload once, beyond the in-memory ring's lifetime.
        self.on_register: List[
            Callable[[int, Any, Any, Any, Optional[Tuple]], None]
        ] = []

    # ------------------------------------------------------------------
    # Identity

    def ensure(self, tup: Tuple, loc_spec: Any) -> int:
        """Get-or-assign the local ID of ``tup`` (a no-op for tupleTable
        rows themselves, which are never registered)."""
        if tup.name == TUPLE_TABLE:
            return -1
        tid = self._ids.get(tup)
        if tid is not None:
            return tid
        self._counter += 1
        tid = self._counter
        self._ids[tup] = tid
        self._memo[tid] = tup
        self._refs[tid] = 0
        self._write_row(tid, self._address, tid, loc_spec, tup)
        return tid

    def id_of(self, tup: Tuple) -> int:
        """The local ID of ``tup``, assigning one if needed."""
        return self.ensure(tup, loc_spec=tup.location)

    def peek(self, tup: Tuple) -> Optional[int]:
        """The local ID of ``tup`` if it is currently registered.

        Unlike :meth:`id_of` this never mints a fresh ID, so callers
        can distinguish "this node has forgotten the tuple" (rotation,
        restart) and fall back to the durable store's identity records.
        """
        return self._ids.get(tup)

    def on_arrival(
        self,
        tup: Tuple,
        src: Optional[str],
        src_tid: Optional[int],
        mid: Optional[int] = None,
    ) -> int:
        """Register a tuple received from the network.

        Records the sender's address and the sender's local ID for it,
        which is what lets distributed trace walks (§3.2) hop from the
        receiving node back to the rule execution that produced the
        tuple on the sender.

        ``mid`` is the sender's wire-level message id.  A (src, mid)
        pair seen before marks a retransmission or fabric duplicate of
        a message already registered: the existing local ID is returned
        and no tupleTable row is re-written, so duplicates do not
        double-count in the refcount path or re-fire row observers.
        """
        if tup.name == TUPLE_TABLE:
            return -1
        if src is not None and mid is not None:
            seen = self._seen_mids
            now = self._now()
            if self._mid_lifetime is not None:
                horizon = now - self._mid_lifetime
                while seen and next(iter(seen.values())) <= horizon:
                    seen.popitem(last=False)
            if (src, mid) in seen:
                self.duplicates_ignored += 1
                tid = self._ids.get(tup)
                return tid if tid is not None else self.ensure(
                    tup, loc_spec=tup.location
                )
            seen[(src, mid)] = now
        location = tup.location
        tid = self.ensure(tup, loc_spec=location)
        if src is not None and src_tid is not None:
            self._write_row(tid, src, src_tid, location)
        return tid

    def on_send(self, tup: Tuple, destination: str) -> int:
        """Register that ``tup`` was sent; returns the local ID to ship."""
        if tup.name == TUPLE_TABLE:
            return -1
        tid = self.ensure(tup, loc_spec=destination)
        self._write_row(tid, self._address, tid, destination)
        return tid

    def lookup(self, tid: int) -> Optional[Tuple]:
        """The memoized tuple for a local ID, if still retained."""
        return self._memo.get(tid)

    def source_of(self, tid: int) -> Optional[tuple]:
        """(SrcAddr, SrcTID) recorded for a local ID, if retained."""
        row = self._table.lookup_key((tid,))
        if row is None:
            return None
        return row.values[2], row.values[3]

    # ------------------------------------------------------------------
    # Reference counting (driven by ruleExec observers)

    def incref(self, tid: int) -> None:
        if tid in self._refs:
            self._refs[tid] += 1

    def decref(self, tid: int) -> None:
        count = self._refs.get(tid)
        if count is None:
            return
        count -= 1
        self._refs[tid] = count
        if count <= 0:
            self._discard(tid)

    def _discard(self, tid: int) -> None:
        tup = self._memo.pop(tid, None)
        self._refs.pop(tid, None)
        if tup is not None:
            self._ids.pop(tup, None)
        self._table.delete_key((tid,))

    def _row_removed(self, values: tuple, reason: RemoveReason) -> None:
        # TTL expiry / eviction of a tupleTable row drops the memo too
        # (the paper's "or times out").  DELETED comes from _discard and
        # keeps it (as a replace by a metadata update does).
        if reason is not RemoveReason.DELETED:
            tid = values[1]
            tup = self._memo.pop(tid, None)
            self._refs.pop(tid, None)
            if tup is not None:
                self._ids.pop(tup, None)

    # ------------------------------------------------------------------

    def _write_row(
        self,
        tid: int,
        src: Any,
        src_tid: Any,
        loc_spec: Any,
        minted: Optional[Tuple] = None,
    ) -> None:
        self._append((self._address, tid, src, src_tid, loc_spec))
        for callback in self.on_register:
            callback(tid, src, src_tid, loc_spec, minted)

    def retained(self) -> int:
        """Number of memoized tuples currently held."""
        return len(self._memo)

    def resume_from(self, counter: int) -> None:
        """Advance the tid counter past ``counter`` (crash-recovery:
        replayed ``tupleTable`` rows keep their pre-crash IDs, so new
        assignments must start above the replayed maximum)."""
        if counter > self._counter:
            self._counter = counter
