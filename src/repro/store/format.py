"""Record formats of the durable forensic event store.

Every record is a flat JSON-ready dict with a ``k`` (kind) tag and is
serialized in *canonical* form — sorted keys, compact separators — so a
store built from a seeded run is byte-for-byte reproducible, which is
what the nightly campaign-smoke CI job pins.

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
``re.b``    a lossless *burst* of consecutive ``re`` records collapsed
            columnar-style (see :mod:`repro.store.compress`); expanding
            it recovers the original records exactly.
``log.b``   a counted, BEEP-style lossy burst of ``tl``/``xl`` noise
            (periodic-rule firing storms): only the count and the exact
            first/last timestamps survive.

Timestamps are virtual-clock seconds.  Tuple payloads are
``{"rel": name, "v": [values...]}`` with non-JSON values degraded to
``{"!r": repr(value)}`` — deterministic, and sufficient for display and
content matching.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.runtime.tuples import Tuple

#: Record kind tags.
RULE_EXEC = "re"
TUPLE_IDENT = "tt"
TUPLE_LOG = "tl"
TABLE_LOG = "xl"
RULE_BURST = "re.b"
LOG_BURST = "log.b"

_JSON_SCALARS = (str, int, float, bool, type(None))


def _json_value(value: Any) -> Any:
    """A deterministic JSON-safe projection of one tuple field."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, (str, int)):
        return value
    if isinstance(value, float):
        return value
    if isinstance(value, (list, tuple)):
        return [_json_value(v) for v in value]
    return {"!r": repr(value)}


def tuple_payload(tup: Tuple) -> Dict[str, Any]:
    """Canonical payload of one tuple: relation name + field list."""
    return {"rel": tup.name, "v": [_json_value(v) for v in tup.values]}


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


#: One encoder for every record: ``json.dumps`` with non-default
#: arguments builds a new one per call.
_canonical = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def encode(record: Dict[str, Any]) -> str:
    """Canonical single-line JSON of one record.

    Pure ASCII (non-ASCII text is ``\\u``-escaped) with no raw newline,
    so byte offsets are character offsets and a JSONL file is a JSON
    array minus punctuation.  Canonical form is a fixed point:
    ``encode(decode(line)) == line`` for every line this wrote, which
    is what lets a reader sort on the stored line instead of
    re-encoding the record it decoded from it.
    """
    return _canonical(record)


def decode(line: str) -> Dict[str, Any]:
    return json.loads(line)


def decode_many(lines: List[str]) -> List[Dict[str, Any]]:
    """``[decode(line) for line in lines]`` in one parser call."""
    return json.loads("[" + ",".join(lines) + "]")


# ----------------------------------------------------------------------
# Record constructors (kept together so every writer agrees on fields)


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
        "s": _json_value(src),
        "si": _json_value(src_tid),
        "l": _json_value(loc),
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
    """How many original events one stored record stands for."""
    if record["k"] in (RULE_BURST, LOG_BURST):
        return int(record["cnt"])
    return 1


def record_tids(record: Dict[str, Any]) -> List[int]:
    """Tuple ids a record references (for per-segment id ranges)."""
    kind = record["k"]
    if kind == RULE_EXEC:
        return [record["c"], record["e"]]
    if kind == TUPLE_IDENT:
        return [record["i"]]
    if kind == RULE_BURST:
        return list(record["c"]) + list(record["e"])
    return []
