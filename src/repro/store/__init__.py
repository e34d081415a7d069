"""Durable, queryable forensic event store (see :mod:`repro.store.store`).

The public surface:

- :class:`StoreConfig` / :class:`ForensicStore` — capture, segments,
  queries, provenance;
- :func:`backward_slice` over :class:`MemoryProvider`,
  :class:`StoreProvider` or the two :class:`Layered` — alarm -> minimal
  supporting input set;
- ``python -m repro store`` — offline query / slice / info CLI
  (:mod:`repro.store.cli`).
"""

from repro.store.format import tuple_payload
from repro.store.slicing import (
    Layered,
    MemoryProvider,
    Slice,
    StoreProvider,
    backward_slice,
)
from repro.store.store import ForensicStore, StoreConfig

__all__ = [
    "ForensicStore",
    "Layered",
    "MemoryProvider",
    "Slice",
    "StoreConfig",
    "StoreProvider",
    "backward_slice",
    "tuple_payload",
]
