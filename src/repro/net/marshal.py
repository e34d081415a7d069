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
against.  Values are spelled by :mod:`repro.codec`: encodable values
are its domain — str, bool, int, float, None, NodeID, ``infinity`` and
(nested) sequences thereof — and the frame is its canonical writer's.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple as PyTuple

from repro import codec
from repro.errors import NetworkError
from repro.overlog.types import INFINITY, NodeID
from repro.runtime.tuples import Tuple


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
        "values": codec.encode_values(tup.values),
        "src": src,
        "src_tid": src_tid,
        "mid": mid,
    }
    return codec.dumps(body).encode()


def encode_delete(name: str, pattern: PyTuple) -> bytes:
    """The wire form of a remote-delete request (None entries are
    wildcards)."""
    body = {
        "kind": "delete",
        "name": name,
        "pattern": codec.encode_values(pattern),
    }
    return codec.dumps(body).encode()


#: Classes whose instances decode from the wire as themselves (``bool``
#: and ``NoneType`` cannot be subclassed; a NodeID decodes to an equal
#: NodeID, ``infinity`` to the singleton).  Membership is by exact
#: class: a subclass changes on the wire.
_WIRE_STABLE = frozenset(
    (str, int, float, bool, type(None), NodeID, type(INFINITY))
)


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
    raise codec.unmarshalable(value)


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


#: Cache of ``len(codec.dumps(s))`` per distinct string.  Predicate
#: names and addresses repeat endlessly, so the escape-aware length of
#: each is computed exactly once.
_STR_LEN_CACHE: Dict[str, int] = {}


def _string_len(s: str) -> int:
    cached = _STR_LEN_CACHE.get(s)
    if cached is None:
        cached = len(codec.dumps(s))
        if len(_STR_LEN_CACHE) < 65536:
            _STR_LEN_CACHE[s] = cached
    return cached


def _value_len(value: Any) -> int:
    """``len(codec.dumps(value))``, with each value spelled the way
    json spells it (a subclass as its base class)."""
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
    if value is INFINITY:
        return _INFINITY_LEN
    if isinstance(value, (list, tuple)):
        if not value:
            return 2
        return 1 + len(value) + sum(_value_len(v) for v in value)
    raise codec.unmarshalable(value)


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
_INFINITY_LEN = len(codec.dumps(INFINITY))  # {"infinity":null}


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
        body = codec.loads(data.decode())
        kind = body.get("kind")
        if kind == "tuple":
            return {
                "kind": "tuple",
                "name": body["name"],
                "values": codec.decode_values(body["values"]),
                "src": body.get("src"),
                "src_tid": body.get("src_tid"),
                "mid": body.get("mid"),
            }
        if kind == "delete":
            return {
                "kind": "delete",
                "name": body["name"],
                "pattern": codec.decode_values(body["pattern"]),
            }
    except (ValueError, UnicodeDecodeError) as exc:
        raise NetworkError(f"undecodable message: {exc}") from exc
    raise NetworkError(f"unknown message kind on the wire: {kind!r}")
