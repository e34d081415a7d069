"""Record model and column schema of the durable forensic event store.

The *logical* model is one flat JSON-ready dict per event with a ``k``
(kind) tag; every read API returns these dicts, and :func:`encode`
serializes anything the store writes in *canonical* form — sorted keys,
compact separators — so a store built from a seeded run is
byte-for-byte reproducible, which is what the nightly campaign-smoke CI
job pins.

Record kinds
------------

``re``      one ``ruleExec`` edge: rule ``r`` on node ``n`` turned cause
            tuple ``c`` into effect tuple ``e`` (``ev`` marks the
            triggering-event edge; ``False`` rows are preconditions).
``tt``      one ``tupleTable`` identity row: node-local tuple id ``i``
            with its wire provenance (``s``/``si`` = source address and
            the source node's id for the same tuple) and location
            specifier ``l``.  The *first* row written for an id also
            carries the tuple payload ``rep``; later identity updates
            (e.g. the source row written on arrival) omit it.
``tl``      one ``tupleLog`` entry (a locally delivered tuple).
``xl``      one ``tableLog`` entry (a table change: insert / replace /
            delete / expire / evict).
``log.b``   a counted, BEEP-style lossy burst of ``tl``/``xl`` noise
            (periodic-rule firing storms): only the count and the exact
            first/last timestamps survive.

On disk and in the capture buffer an event is not a dict but one entry
in each column of its kind (:data:`COLUMNS`); ``q`` is the store-wide
capture sequence number, which orders events that share a timestamp.

Timestamps are virtual-clock seconds.  Tuple payloads are
``{"rel": name, "v": [values...]}`` with non-JSON values degraded to
``{"!r": repr(value)}`` — deterministic, and sufficient for display and
content matching.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.runtime.tuples import Tuple

#: Record kind tags.
RULE_EXEC = "re"
TUPLE_IDENT = "tt"
TUPLE_LOG = "tl"
TABLE_LOG = "xl"
LOG_BURST = "log.b"
#: Block tag of the payloads of a segment's ``tt`` rows (never a record
#: kind): ``at`` holds ``tt`` row indices, ``v`` their value lists.
PAYLOADS = "p"

#: The columns of each kind, in the order the capture buffer interleaves
#: them.  ``re`` rows have no ``t`` of their own (it is ``to``); a
#: ``tt`` row's payload values ``v`` are ``None`` unless it is the first
#: row of its id; ``op`` is ``None`` in a ``log.b`` row counting ``tl``
#: entries, and ``tl`` (the window's end) is the row's ``t``.
COLUMNS = {
    RULE_EXEC: ("q", "n", "r", "c", "e", "ti", "to", "ev"),
    TUPLE_IDENT: ("q", "n", "i", "s", "si", "l", "t", "rel", "v"),
    TUPLE_LOG: ("q", "n", "seq", "t", "rel", "rep"),
    TABLE_LOG: ("q", "n", "seq", "t", "rel", "op", "rep"),
    LOG_BURST: ("q", "n", "lk", "rel", "op", "cnt", "tf", "sf", "sl", "t"),
}
#: Low-cardinality columns, stored as codes into the block's dictionary.
CODED = frozenset(("n", "r", "rel", "op", "s", "l", "lk"))
#: The column holding each kind's event time.
TIME = {kind: "t" for kind in COLUMNS}
TIME[RULE_EXEC] = "to"

#: Classes whose instances are their own JSON-safe projection.
PLAIN = frozenset((str, int, float, bool, type(None)))


def json_value(value: Any) -> Any:
    """A deterministic JSON-safe projection of one tuple field."""
    if value.__class__ in PLAIN or isinstance(value, (str, int, float)):
        return value
    if isinstance(value, (list, tuple)):
        return [json_value(v) for v in value]
    return {"!r": repr(value)}


def payload_values(tup: Tuple) -> list:
    """The ``v`` of a tuple's payload (scalars pass without a call)."""
    return [
        v if v.__class__ in PLAIN else json_value(v) for v in tup.values
    ]


def tuple_payload(tup: Tuple) -> Dict[str, Any]:
    """Canonical payload of one tuple: relation name + field list."""
    return {"rel": tup.name, "v": payload_values(tup)}


def payload_matches(payload: Dict[str, Any], tup: Tuple) -> bool:
    """True when ``payload`` is the canonical encoding of ``tup``."""
    return payload == tuple_payload(tup)


@dataclass(frozen=True)
class Degraded:
    """Stand-in for a field stored as ``{"!r": text}``: hashable, and
    it prints — and re-encodes — as the stored text."""

    text: str

    def __repr__(self) -> str:
        return self.text


def _thaw(value: Any) -> Any:
    if isinstance(value, list):
        return tuple(_thaw(v) for v in value)
    if isinstance(value, dict):
        return Degraded(value["!r"])
    return value


def payload_tuple(payload: Optional[Dict[str, Any]]) -> Optional[Tuple]:
    """Rebuild a :class:`Tuple` from a payload.

    Never raises on a payload :func:`tuple_payload` produced, and
    ``tuple_payload(payload_tuple(p)) == p``: lists come back as tuples
    and degraded fields as :class:`Degraded` stand-ins, at any depth.
    The stand-ins only display; content matching should go through
    :func:`payload_matches` instead.
    """
    if payload is None:
        return None
    return Tuple(payload["rel"], _thaw(payload["v"]))


#: One encoder for everything written: ``json.dumps`` with non-default
#: arguments builds a new one per call.
_canonical = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def encode(value: Dict[str, Any]) -> str:
    """Canonical single-line JSON of one record, block or manifest.

    Pure ASCII (non-ASCII text is ``\\u``-escaped) with no raw newline,
    so byte offsets are character offsets and a segment file is a JSON
    array minus punctuation.  Canonical form is a fixed point:
    ``encode(decode(line)) == line`` for every line this wrote.
    """
    return _canonical(value)


def decode(line: str) -> Dict[str, Any]:
    return json.loads(line)


# ----------------------------------------------------------------------
# Record constructors (kept together so every reader agrees on fields)


def rule_exec_record(
    node: str,
    rule: str,
    cause: int,
    effect: int,
    in_t: float,
    out_t: float,
    is_event: bool,
) -> Dict[str, Any]:
    return {
        "k": RULE_EXEC,
        "n": node,
        "r": rule,
        "c": cause,
        "e": effect,
        "ti": in_t,
        "to": out_t,
        "ev": bool(is_event),
        "t": out_t,
    }


def tuple_ident_record(
    node: str,
    tid: int,
    src: Any,
    src_tid: Any,
    loc: Any,
    when: float,
    payload: Optional[Dict[str, Any]],
) -> Dict[str, Any]:
    record = {
        "k": TUPLE_IDENT,
        "n": node,
        "i": tid,
        "s": json_value(src),
        "si": json_value(src_tid),
        "l": json_value(loc),
        "t": when,
    }
    if payload is not None:
        record["rep"] = payload
        record["rel"] = payload["rel"]
    return record


def tuple_log_record(
    node: str, seq: int, when: float, rel: str, text: str
) -> Dict[str, Any]:
    return {
        "k": TUPLE_LOG,
        "n": node,
        "seq": seq,
        "rel": rel,
        "rep": text,
        "t": when,
    }


def table_log_record(
    node: str, seq: int, when: float, rel: str, op: str, text: str
) -> Dict[str, Any]:
    return {
        "k": TABLE_LOG,
        "n": node,
        "seq": seq,
        "rel": rel,
        "op": op,
        "rep": text,
        "t": when,
    }


def logical_events(record: Dict[str, Any]) -> int:
    """How many original events one record stands for."""
    return int(record["cnt"]) if record["k"] == LOG_BURST else 1
