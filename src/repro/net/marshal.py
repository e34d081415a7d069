"""Tuple marshaling — what the wire between nodes guarantees.

P2's network preamble/postamble marshal tuples onto UDP.  Here every
node shares one process, so a message carries the receiver-ready
:class:`Tuple` itself; the wire format — a canonical, self-describing
tagged JSON encoding (:func:`encode_message`, :func:`encode_delete`) —
is the contract each send is held to, not bytes built and parsed:

- **Isolation.** :func:`payload_for` returns a tuple exactly as decoding
  its wire bytes would give it back, value by value and type by type:
  sequences become tuples, a subclass of ``str``, ``int``, ``float`` or
  ``NodeID`` becomes its base class (json spells it the way the base
  class does).  It is the sender's own tuple whenever nothing would
  change; tuples are immutable, so sharing one across nodes leaks
  nothing the bytes would not have carried.
- **Failure at send time.** A value the encoder cannot marshal raises
  :class:`NetworkError` in :func:`payload_for` and :func:`wire_length`,
  before the message enters the fabric.
- **Exact sizes.** :func:`wire_length` and :func:`delete_length` are
  ``len(encode_message(...))`` and ``len(encode_delete(...))`` computed
  arithmetically, so byte accounting counts what shipping the bytes
  would.

Nothing at runtime builds or parses a message: the encoder and
:func:`decode_message` define the format that the Hypothesis properties
in ``tests/batchexec/test_properties.py`` pin sizes and normalisation
against.  Encodable values: str, bool, int, float, None, NodeID, and
(nested) sequences thereof.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional, Tuple as PyTuple

from repro.errors import NetworkError
from repro.overlog.types import NodeID
from repro.runtime.tuples import Tuple

_NODE_ID_TAG = "nodeid"


def _unmarshalable(value: Any) -> NetworkError:
    return NetworkError(
        f"value of type {type(value).__name__} cannot be marshaled: "
        f"{value!r}"
    )


def _encode_value(value: Any):
    if isinstance(value, NodeID):
        return {_NODE_ID_TAG: [value.value, value.bits]}
    if isinstance(value, (list, tuple)):
        return [_encode_value(item) for item in value]
    if value is None or isinstance(value, (str, bool, int, float)):
        return value
    raise _unmarshalable(value)


def _decode_value(value: Any):
    if isinstance(value, dict):
        if _NODE_ID_TAG in value:
            raw, bits = value[_NODE_ID_TAG]
            return NodeID(raw, bits)
        raise NetworkError(f"unknown tagged value on the wire: {value!r}")
    if isinstance(value, list):
        return tuple(_decode_value(item) for item in value)
    return value


def encode_value(value: Any):
    """Public form of the tagged encoding (JSON-ready, NodeID-aware).

    The crash-recovery durable store (:mod:`repro.recovery`) reuses the
    wire encoding for checkpoint and WAL records: state that cannot
    survive the wire cannot survive a restart either, and both fail
    loudly at write time.
    """
    return _encode_value(value)


def decode_value(value: Any):
    """Inverse of :func:`encode_value` (sequences decode as tuples)."""
    return _decode_value(value)


def encode_message(
    tup: Tuple,
    src: str,
    src_tid: Optional[int],
    mid: Optional[int] = None,
) -> bytes:
    """The wire form of a tuple plus its trace identity.

    ``mid`` is the sender's wire-level message id — a per-node monotone
    counter stamped on every send.  (src, mid) uniquely identifies one
    logical transmission, which is what lets the receiving side's
    introspection (the ``tupleTable`` registry) recognize a fabric
    duplicate or retransmission of a message it already accounted for,
    without confusing it with a genuine re-send of the same tuple.
    """
    body = {
        "kind": "tuple",
        "name": tup.name,
        "values": [_encode_value(v) for v in tup.values],
        "src": src,
        "src_tid": src_tid,
        "mid": mid,
    }
    return json.dumps(body, separators=(",", ":")).encode()


def encode_delete(name: str, pattern: PyTuple) -> bytes:
    """The wire form of a remote-delete request (None entries are
    wildcards)."""
    body = {
        "kind": "delete",
        "name": name,
        "pattern": [_encode_value(v) for v in pattern],
    }
    return json.dumps(body, separators=(",", ":")).encode()


#: Classes whose instances decode from the wire as themselves (``bool``
#: and ``NoneType`` cannot be subclassed; a NodeID decodes to an equal
#: NodeID).  Membership is by exact class: a subclass changes on the wire.
_WIRE_STABLE = frozenset((str, int, float, bool, type(None), NodeID))


def _wire_value(value: Any):
    """``value`` as decoding its wire form gives it back."""
    kind = value.__class__
    if kind in _WIRE_STABLE:
        return value
    if isinstance(value, (list, tuple)):
        return wire_values(value if kind is tuple else tuple(value))
    if isinstance(value, NodeID):
        return NodeID(value.value, value.bits)
    # json writes a subclass with the base class's spelling
    # (``int.__repr__``, ``float.__repr__``, the characters of the str).
    if isinstance(value, str):
        return str.__str__(value)
    if isinstance(value, int):
        return int.__int__(value)
    if isinstance(value, float):
        return float.__float__(value)
    raise _unmarshalable(value)


def wire_values(values: PyTuple) -> PyTuple:
    """``values`` as decoding their wire form gives them back: the same
    tuple object when no value would change."""
    for value in values:
        if value.__class__ not in _WIRE_STABLE:
            break
    else:
        return values
    decoded = tuple(_wire_value(value) for value in values)
    if all(a is b for a, b in zip(decoded, values)):
        return values
    return decoded


def payload_for(tup: Tuple) -> Tuple:
    """The tuple a receiver decodes from ``tup``'s wire form: ``tup``
    itself unless a value would change on the wire."""
    for value in tup.values:
        if value.__class__ not in _WIRE_STABLE:
            values = wire_values(tup.values)
            return tup if values is tup.values else Tuple(tup.name, values)
    return tup


#: Cache of ``len(json.dumps(s))`` per distinct string.  Predicate
#: names and addresses repeat endlessly, so the escape-aware length of
#: each is computed exactly once.
_STR_LEN_CACHE: Dict[str, int] = {}


def _string_len(s: str) -> int:
    cached = _STR_LEN_CACHE.get(s)
    if cached is None:
        cached = len(json.dumps(s))
        if len(_STR_LEN_CACHE) < 65536:
            _STR_LEN_CACHE[s] = cached
    return cached


def _value_len(value: Any) -> int:
    """len(json.dumps(_encode_value(value), separators=(",", ":"))), with
    each value spelled the way json spells it (a subclass as its base
    class)."""
    if value is None:
        return 4  # null
    if isinstance(value, bool):
        return 4 if value else 5  # true / false
    if isinstance(value, str):
        return _string_len(str.__str__(value))
    if isinstance(value, int):
        return len(int.__repr__(value))
    if isinstance(value, float):
        if value != value or value in _INF:
            # json.dumps spells non-finite floats NaN/Infinity.
            return 3 if value != value else (8 if value > 0 else 9)
        return len(float.__repr__(value))
    if isinstance(value, NodeID):
        # {"nodeid":[value,bits]} — 14 chars of framing around the two
        # integers.
        return 14 + len(str(value.value)) + len(str(value.bits))
    if isinstance(value, (list, tuple)):
        if not value:
            return 2
        return 1 + len(value) + sum(_value_len(v) for v in value)
    raise _unmarshalable(value)


def wire_length(
    tup: Tuple,
    src: str,
    src_tid: Optional[int],
    mid: Optional[int] = None,
) -> int:
    """Exact ``len(encode_message(tup, src, src_tid, mid))`` — computed
    arithmetically, without building the JSON."""
    cache = _STR_LEN_CACHE
    name_len = cache.get(tup.name)
    if name_len is None:
        name_len = _string_len(tup.name)
    src_len = cache.get(src)
    if src_len is None:
        src_len = _string_len(src)
    total = _FRAME_OVERHEAD + name_len + src_len
    values = tup.values
    if values:
        total += 1 + len(values)
        for v in values:
            # Exact-type fast path for the dominant scalars (bool is a
            # subclass of int but `type(...) is int` excludes it, so it
            # keeps its true/false spelling via the full dispatch).
            kind = type(v)
            if kind is int:
                total += len(str(v))
            elif kind is float:
                total += len(repr(v)) if v == v and v not in _INF else (
                    _value_len(v)
                )
            elif kind is str:
                cached = cache.get(v)
                total += cached if cached is not None else _string_len(v)
            elif kind is NodeID:
                total += 14 + len(str(v.value)) + len(str(v.bits))
            else:
                total += _value_len(v)
    else:
        total += 2
    total += 4 if src_tid is None else len(str(src_tid))
    total += 4 if mid is None else len(str(mid))
    return total


def delete_length(name: str, pattern: PyTuple) -> int:
    """Exact ``len(encode_delete(name, pattern))``, computed like
    :func:`wire_length`."""
    return _DELETE_OVERHEAD + _string_len(name) + _value_len(tuple(pattern))


_INF = (float("inf"), float("-inf"))


#: Length of each frame's skeleton around its payload slots: measured
#: once from the real encoder so the arithmetic can never drift from a
#: punctuation change.
_FRAME_OVERHEAD = (
    len(encode_message(Tuple("", ()), "", None, mid=None))
    - 2 * _string_len("")  # name, src slots
    - 2                    # empty values slot
    - 4 - 4                # null src_tid, null mid
)
_DELETE_OVERHEAD = len(encode_delete("", ())) - _string_len("") - 2


def decode_message(data: bytes) -> Dict[str, Any]:
    """Unmarshal a wire message into a dict (the format's inverse).

    For "tuple" messages the dict has name/values/src/src_tid/mid; for
    "delete" messages name/pattern.
    """
    try:
        body = json.loads(data.decode())
    except (ValueError, UnicodeDecodeError) as exc:
        raise NetworkError(f"undecodable message: {exc}") from exc
    kind = body.get("kind")
    if kind == "tuple":
        return {
            "kind": "tuple",
            "name": body["name"],
            "values": tuple(_decode_value(v) for v in body["values"]),
            "src": body.get("src"),
            "src_tid": body.get("src_tid"),
            "mid": body.get("mid"),
        }
    if kind == "delete":
        return {
            "kind": "delete",
            "name": body["name"],
            "pattern": tuple(_decode_value(v) for v in body["pattern"]),
        }
    raise NetworkError(f"unknown message kind on the wire: {kind!r}")
