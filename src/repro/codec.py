"""The one JSON codec: how a language value is spelled, and the
canonical writer and reader for everything the system writes.

**The value domain** is what OverLog computes with: str, bool, int,
float, None, :class:`~repro.overlog.types.NodeID`, the ``infinity``
literal (:data:`~repro.overlog.types.INFINITY`) and (nested) sequences
of these.  It is exactly what crosses the wire, the write-ahead log and
the forensic store.  :func:`encode` spells a value as JSON-ready data:

- str, bool, int, float and None are themselves (a subclass is written
  the way its base class is);
- a sequence is a list of its encoded items;
- a NodeID is ``{"nodeid": [value, bits]}``;
- ``infinity`` is ``{"infinity": null}``.

:func:`decode` inverts it: ``decode(encode(v)) == v`` for every value in
the domain, sequences coming back as tuples, a subclass as its base
class and ``infinity`` as the singleton.  A value outside the domain
raises :class:`~repro.errors.NetworkError` ("cannot be marshaled").

**The writer** :func:`dumps` is canonical — sorted keys, compact
separators, pure ASCII — so every file, verdict and fingerprint built
from a seeded run is byte-for-byte reproducible, and
``dumps(loads(text)) == text`` for every line it wrote.  It takes
domain values anywhere in a document (``dumps(x) == dumps(encode(x))``).
:func:`loads` is the one reader; it raises ``ValueError`` on text that
is not JSON, which each caller turns into its own typed error.
"""

from __future__ import annotations

import json
from typing import Any, Iterable, List, Tuple as PyTuple

from repro.errors import NetworkError
from repro.overlog.types import INFINITY, NodeID

NODE_ID_TAG = "nodeid"
INFINITY_TAG = "infinity"

#: Classes whose instances are their own JSON form (membership by
#: exact class: the fast path of every per-value call).
_NATIVE = frozenset((str, int, float, bool, type(None)))


def unmarshalable(value: Any) -> NetworkError:
    return NetworkError(
        f"value of type {type(value).__name__} cannot be marshaled: "
        f"{value!r}"
    )


def encode(value: Any) -> Any:
    """The JSON-ready spelling of one value of the domain."""
    if value.__class__ in _NATIVE or isinstance(value, (str, int, float)):
        return value
    if isinstance(value, NodeID):
        return {NODE_ID_TAG: [value.value, value.bits]}
    if value is INFINITY:
        return {INFINITY_TAG: None}
    if isinstance(value, (list, tuple)):
        return [encode(item) for item in value]
    raise unmarshalable(value)


def encode_values(values: Iterable[Any]) -> List[Any]:
    """A tuple's values as a JSON-ready list."""
    return [v if v.__class__ in _NATIVE else encode(v) for v in values]


def check(values: Iterable[Any]) -> None:
    """Raise :class:`NetworkError` unless every value is in the domain."""
    for v in values:
        if v.__class__ not in _NATIVE:
            encode(v)


def decode(value: Any) -> Any:
    """The value :func:`encode` spelled as ``value``; raises
    ``ValueError`` on an object that is not one of the two tags."""
    kind = value.__class__
    if kind is list:
        return tuple(map(decode, value))
    if kind is dict and len(value) == 1:
        if NODE_ID_TAG in value:
            raw, bits = value[NODE_ID_TAG]
            return NodeID(raw, bits)
        if INFINITY_TAG in value:
            return INFINITY
    if kind is dict:
        raise ValueError(f"not an encoded value: {value!r}")
    return value


def decode_values(values: List[Any]) -> PyTuple:
    """Inverse of :func:`encode_values` (a tuple)."""
    return tuple(
        v if v.__class__ in _NATIVE else decode(v) for v in values
    )


# The writer and the reader are the library's callables, not wrappers:
# a profile that charges library time to its caller then charges each
# write and parse to the store, WAL or export that asked for it.

#: The canonical writer, ``dumps(document) -> str``: one encoder for
#: everything written (``json.dumps`` with non-default arguments builds
#: a new one per call).  json spells every value of the domain but the
#: two tagged ones itself, so only those — and values outside the
#: domain, which raise — reach ``default``.
dumps = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), default=encode
).encode

#: The reader, ``loads(text)``: ``ValueError`` on text that is not JSON.
loads = json.loads
