"""Mergeable partial-aggregate state — the algebra of the tree.

Each class holds one node's (or one subtree's) contribution to a global
aggregate for exactly one epoch.  The contract the differential battery
and the Hypothesis properties pin:

- ``merge`` is commutative and associative;
- ``finalize(merge(a, b)) == finalize(partial over the concatenated
  inputs)`` — so folding partials up the tree in any shape produces
  the byte-identical answer the centralized evaluation computes;
- merging partials from different epochs raises
  :class:`~repro.errors.EpochMismatchError` — never silently blends
  two snapshots of the population;
- the bounded top-k sketch never under-reports: every reported count is
  the exact observed count of that member, and any member whose true
  count exceeds the sketch's ``spill`` bound is guaranteed present.

Everything round-trips through the value encoding of
:mod:`repro.codec`, since partials travel between nodes as ordinary
``aggPartial`` tuples.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.errors import AggregationError, EpochMismatchError
from repro.overlog.types import NodeID

#: Aggregate functions the planner may decompose (``avg`` is *not* here:
#: it is not mergeable as shipped, and falls back to the centralized
#: path — see :mod:`repro.aggtree.planner`).
DECOMPOSABLE_FUNCS = ("count", "sum", "min", "max", "topk")

#: Default number of distinct members a top-k sketch carries on the
#: wire.  Within this bound the sketch is exact; beyond it, trimming
#: engages and the ``spill`` error bound starts growing.
DEFAULT_SKETCH_CAPACITY = 64

#: Default k reported by ``finalize`` of a top-k sketch.
DEFAULT_TOP_K = 5


def sort_key(value: Any) -> Tuple:
    """A total order over wire-encodable values (for deterministic
    tie-breaking and canonical payload ordering across mixed types)."""
    if isinstance(value, NodeID):
        return (3, value.value, "")
    if isinstance(value, bool):
        return (1, int(value), "")
    if isinstance(value, (int, float)):
        return (2, value, "")
    if isinstance(value, str):
        return (4, 0, value)
    if isinstance(value, (tuple, list)):
        return (5, 0, "") + tuple(sort_key(v) for v in value)
    if value is None:
        return (0, 0, "")
    raise AggregationError(f"unorderable aggregate value: {value!r}")


class Partial:
    """Base class: one epoch's mergeable state for one aggregate."""

    func = "?"

    def __init__(self, epoch: int) -> None:
        self.epoch = epoch
        #: How many origin nodes contributed into this state (1 for a
        #: leaf partial; summed on merge).  The ledger uses it to
        #: attribute missing subtrees at the root.
        self.origins = 0

    # -- the algebra ----------------------------------------------------

    def add(self, value: Any) -> None:
        raise NotImplementedError

    def merge(self, other: "Partial") -> "Partial":
        """Fold ``other`` into this state (returns self for chaining)."""
        if other.func != self.func:
            raise AggregationError(
                f"cannot merge {other.func!r} partial into {self.func!r}"
            )
        if other.epoch != self.epoch:
            raise EpochMismatchError(
                f"{self.func} partial for epoch {other.epoch} cannot merge "
                f"into epoch {self.epoch}"
            )
        self.origins += other.origins
        self._merge(other)
        return self

    def _merge(self, other: "Partial") -> None:
        raise NotImplementedError

    def finalize(self) -> Optional[Any]:
        """The aggregate's value (None = no row, like min() of nothing)."""
        raise NotImplementedError

    # -- the wire -------------------------------------------------------

    def payload(self) -> Any:
        raise NotImplementedError

    def _load(self, payload: Any) -> None:
        raise NotImplementedError

    def to_wire(self) -> Tuple:
        """A wire-encodable snapshot: ``(func, epoch, origins, payload)``."""
        return (self.func, self.epoch, self.origins, self.payload())

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} epoch={self.epoch} "
            f"origins={self.origins} value={self.finalize()!r}>"
        )


class CountPartial(Partial):
    """``count<*>`` — the archetypal decomposable aggregate."""

    func = "count"

    def __init__(self, epoch: int) -> None:
        super().__init__(epoch)
        self.n = 0

    def add(self, value: Any) -> None:
        self.n += 1

    def _merge(self, other: "CountPartial") -> None:
        self.n += other.n

    def finalize(self) -> int:
        return self.n

    def payload(self) -> int:
        return self.n

    def _load(self, payload: Any) -> None:
        self.n = int(payload)


class SumPartial(Partial):
    """``sum<V>`` over numeric contributions."""

    func = "sum"

    def __init__(self, epoch: int) -> None:
        super().__init__(epoch)
        self.total: Any = None

    def add(self, value: Any) -> None:
        self.total = value if self.total is None else self.total + value

    def _merge(self, other: "SumPartial") -> None:
        if other.total is not None:
            self.add(other.total)

    def finalize(self) -> Optional[Any]:
        return self.total

    def payload(self) -> Any:
        return self.total

    def _load(self, payload: Any) -> None:
        self.total = payload


class _ExtremumPartial(Partial):
    def __init__(self, epoch: int) -> None:
        super().__init__(epoch)
        self.best: Any = None

    def _better(self, a: Any, b: Any) -> Any:
        raise NotImplementedError

    def add(self, value: Any) -> None:
        self.best = value if self.best is None else self._better(self.best, value)

    def _merge(self, other: "_ExtremumPartial") -> None:
        if other.best is not None:
            self.add(other.best)

    def finalize(self) -> Optional[Any]:
        return self.best

    def payload(self) -> Any:
        return self.best

    def _load(self, payload: Any) -> None:
        self.best = payload


class MinPartial(_ExtremumPartial):
    func = "min"

    def _better(self, a: Any, b: Any) -> Any:
        return b if b < a else a


class MaxPartial(_ExtremumPartial):
    func = "max"

    def _better(self, a: Any, b: Any) -> Any:
        return b if b > a else a


class TopKPartial(Partial):
    """``topk<V>`` — heavy hitters via a bounded, mergeable sketch.

    Exact while the number of distinct members stays within
    ``capacity``; past it, :meth:`trim` drops the lightest members and
    grows ``spill``, the error bound.  The invariant maintained through
    any sequence of adds, trims, and merges:

        every member *not* in the sketch has true count <= ``spill``.

    So a member whose true count exceeds ``spill`` is never lost
    (contrapositive), and kept counts are exact counts of the
    occurrences observed while the member was resident — they never
    over-report.  ``finalize`` returns the top ``k`` as a tuple of
    ``(member, count)`` pairs, heaviest first, ties broken by the
    member's canonical sort order so the result is deterministic.
    """

    func = "topk"

    def __init__(
        self,
        epoch: int,
        k: int = DEFAULT_TOP_K,
        capacity: int = DEFAULT_SKETCH_CAPACITY,
    ) -> None:
        super().__init__(epoch)
        if k <= 0 or capacity < k:
            raise AggregationError(
                f"top-k sketch needs 0 < k <= capacity, got k={k} "
                f"capacity={capacity}"
            )
        self.k = k
        self.capacity = capacity
        self.counts: Dict[Any, int] = {}
        self.spill = 0
        #: Members discarded by trims so far (telemetry attribution).
        self.trimmed = 0

    def add(self, value: Any) -> None:
        self.counts[value] = self.counts.get(value, 0) + 1

    def _merge(self, other: "TopKPartial") -> None:
        for member, count in other.counts.items():
            self.counts[member] = self.counts.get(member, 0) + count
        # A member absent from one side may hide up to that side's
        # spill of unseen mass; bounds add.
        self.spill += other.spill
        self.trimmed += other.trimmed
        self.k = min(self.k, other.k)
        self.capacity = min(self.capacity, other.capacity)

    def _ranked(self) -> List[Tuple[Any, int]]:
        return sorted(
            self.counts.items(), key=lambda kv: (-kv[1], sort_key(kv[0]))
        )

    def trim(self) -> int:
        """Shrink to ``capacity`` members; returns how many were cut.

        The heaviest survive; each dropped member's count is folded
        into ``spill`` (the largest dropped count dominates), keeping
        the never-under-report invariant.
        """
        ranked = self._ranked()
        cut = ranked[self.capacity:]
        if not cut:
            return 0
        # A dropped member's true count is its resident count plus any
        # mass already hidden behind the old spill (it may have been
        # dropped and re-added before), so the new bound is additive.
        self.spill += max(count for _, count in cut)
        for member, _ in cut:
            del self.counts[member]
        self.trimmed += len(cut)
        return len(cut)

    def finalize(self) -> Tuple:
        return tuple((member, count) for member, count in self._ranked()[: self.k])

    def payload(self) -> Tuple:
        self.trim()
        return (
            self.k,
            self.capacity,
            self.spill,
            self.trimmed,
            tuple((member, count) for member, count in self._ranked()),
        )

    def _load(self, payload: Any) -> None:
        k, capacity, spill, trimmed, entries = payload
        self.k = int(k)
        self.capacity = int(capacity)
        self.spill = int(spill)
        self.trimmed = int(trimmed)
        self.counts = {member: int(count) for member, count in entries}


_CLASSES: Dict[str, type] = {
    cls.func: cls
    for cls in (CountPartial, SumPartial, MinPartial, MaxPartial, TopKPartial)
}


def make_partial(
    func: str,
    epoch: int,
    k: int = DEFAULT_TOP_K,
    sketch_capacity: int = DEFAULT_SKETCH_CAPACITY,
) -> Partial:
    """Fresh, empty partial state for one aggregate function."""
    if func not in _CLASSES:
        raise AggregationError(f"no partial state for aggregate {func!r}")
    if func == "topk":
        return TopKPartial(epoch, k=k, capacity=sketch_capacity)
    return _CLASSES[func](epoch)


def partial_from_wire(wire: Tuple) -> Partial:
    """Inverse of :meth:`Partial.to_wire`."""
    try:
        func, epoch, origins, payload = wire
    except (TypeError, ValueError) as exc:
        raise AggregationError(f"malformed partial on the wire: {wire!r}") from exc
    if func not in _CLASSES:
        raise AggregationError(f"unknown partial kind on the wire: {func!r}")
    partial = _CLASSES[func](int(epoch))
    partial.origins = int(origins)
    partial._load(payload)
    return partial
