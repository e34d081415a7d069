"""Immutable tuples — P2's universal data representation.

A tuple has a predicate name and a flat value sequence whose first field
is, by convention, the address where the tuple lives (its location
specifier).  Tuples are immutable and hashable; node-unique IDs for
tracing are assigned by the node's tuple table, not stored here, so the
same logical tuple can be memoized independently on each node (as the
paper's ``tupleTable`` requires).
"""

from __future__ import annotations

from typing import Any, Tuple as PyTuple

from repro.overlog.types import NodeID, format_value


class Tuple:
    """An immutable (name, values) pair."""

    __slots__ = ("name", "values", "_hash", "_size")

    def __init__(self, name: str, values: PyTuple) -> None:
        self.name = name
        self.values = tuple(values)
        self._hash = hash((name, self.values))
        self._size = -1

    @property
    def location(self) -> Any:
        """The location specifier — where this tuple lives (first field)."""
        if not self.values:
            raise IndexError(f"tuple {self.name} has no location field")
        return self.values[0]

    @property
    def arity(self) -> int:
        return len(self.values)

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, Tuple):
            return NotImplemented
        return self.name == other.name and self.values == other.values

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        rest = ", ".join(map(format_value, self.values[1:]))
        loc = self.values[0] if self.values else "?"
        return f"{self.name}@{loc}({rest})"

    def estimated_size(self) -> int:
        """Rough wire size in bytes (for bandwidth accounting).

        Cached: tuples are immutable, and the accounting paths ask for
        the size on every delivery.
        """
        total = self._size
        if total < 0:
            total = len(self.name) + 8
            for value in self.values:
                # Exact-type fast path for the dominant scalars; bool
                # and NodeID fall through to the full dispatch (bool is
                # not `type(...) is int`, so it keeps its 1-byte size).
                kind = type(value)
                if kind is str:
                    total += len(value) + 4
                elif kind is int or kind is float:
                    total += 8
                else:
                    total += _value_size(value)
            self._size = total
        return total


def _value_size(value: Any) -> int:
    if isinstance(value, str):
        return len(value) + 4
    if isinstance(value, bool):
        return 1
    if isinstance(value, NodeID):
        return (value.bits + 7) // 8 + 1
    if isinstance(value, int):
        return 8
    if isinstance(value, float):
        return 8
    if isinstance(value, (list, tuple)):
        return 4 + sum(_value_size(v) for v in value)
    return 16
