"""Per-node collection of materialized tables."""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.errors import UnknownTableError, ValidationError
from repro.overlog.ast import Materialize
from repro.runtime.table import Ring, Table


class TableStore:
    """All tables of one node, keyed by predicate name."""

    def __init__(self, now: Callable[[], float]) -> None:
        self._now = now
        self._tables: Dict[str, Table] = {}
        # Called with each newly created Table (used by the event logger
        # to attach observers to tables materialized after it started).
        self.on_create: List[Callable[[Table], None]] = []

    def materialize(self, decl: Materialize) -> Table:
        """Create (or validate re-declaration of) a table.

        Re-materializing with identical parameters is a no-op so that a
        monitor program shipping its own declarations can be installed on
        a node that already has them; conflicting parameters are an error.
        """
        return self._declare(decl, Table)

    def ring(self, decl: Materialize) -> Ring:
        """Create (or validate re-declaration of) a :class:`Ring`: an
        introspection relation kept as appended values."""
        ring = self._declare(decl, Ring)
        if not isinstance(ring, Ring):
            raise ValidationError(
                f"table {decl.name!r} is materialized as a table, not a ring"
            )
        return ring

    def _declare(self, decl: Materialize, kind: type) -> Any:
        existing = self._tables.get(decl.name)
        if existing is not None:
            same = (
                existing.lifetime == decl.lifetime
                and existing.max_size == decl.max_size
                and existing.key_positions == list(decl.keys)
            )
            if not same:
                raise ValidationError(
                    f"table {decl.name!r} re-materialized with different "
                    f"parameters (have lifetime={existing.lifetime}, "
                    f"size={existing.max_size}, keys={existing.key_positions})"
                )
            return existing
        table = kind(decl.name, decl.lifetime, decl.max_size, decl.keys, self._now)
        self._tables[decl.name] = table
        for callback in list(self.on_create):
            callback(table)
        return table

    def has(self, name: str) -> bool:
        return name in self._tables

    def get(self, name: str) -> Table:
        table = self._tables.get(name)
        if table is None:
            raise UnknownTableError(f"no table named {name!r}")
        return table

    def find(self, name: str) -> Optional[Table]:
        """The table named ``name``, or None — the delivery hot path's
        single-lookup alternative to ``has`` + ``get``."""
        return self._tables.get(name)

    def names(self) -> List[str]:
        return sorted(self._tables)

    def tables(self) -> Iterator[Table]:
        return iter(self._tables.values())

    def live_tuples(self) -> int:
        """Total live tuples across all tables (the paper's metric)."""
        return sum(len(t) for t in self._tables.values())

    def estimated_bytes(self) -> int:
        return sum(t.estimated_bytes() for t in self._tables.values())

    def sweep(self) -> int:
        """Run expiry on every table; returns total expired."""
        return sum(t.sweep() for t in self._tables.values())
