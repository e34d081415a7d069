"""Columnar segment files.

A segment is one immutable file (``seg-NNNNNN.jsonl``) holding one
canonical-JSON line per **block**: the rows of one record kind as
parallel columns (:data:`repro.store.format.COLUMNS`), with the
low-cardinality string columns stored as codes into the block's own
dictionary ``d``.  The payloads of ``tt`` rows live in a block of their
own, so identity lookups never parse them.  Rows keep capture order.

The manifest holds each segment's **summary** — time range, node and
relation sets, per-node spans of the tuple ids a provenance lookup can
ask for (effects ``e`` and identities ``i``, never causes), and each
block's byte offset and row count — so a query prunes whole segments
without touching a file, and a lookup reads and parses only the blocks
it needs.

Everything is byte-stable for a given capture, so a seeded run produces
an identical store every time.  A block that cannot be read back as
what the summary says it is — truncated, undecodable, another
segment's, a column of the wrong length, a code outside the dictionary
— raises :class:`~repro.errors.StoreCorruptionError` naming the file,
the block and its byte offset.

The unflushed tail of a live store is read through the same classes: a
:class:`Segment` whose blocks are already held in memory.
"""

from __future__ import annotations

import os
from itertools import repeat
from typing import Any, Dict, Iterable, List, Optional, Sequence
from typing import Tuple as PyTuple

from repro.errors import StoreCorruptionError
from repro.store import format as fmt

SEGMENT_PATTERN = "seg-%06d.jsonl"

#: ``kind -> {column -> values}``: what a cut hands to :func:`code_blocks`.
Columns = Dict[str, Dict[str, list]]

_PLAIN_KEYS = frozenset((str, type(None)))
_NUMBERS = frozenset((int, float))


def _coded(column: list, index: Dict[Any, int], values: list) -> List[int]:
    """The codes of ``column`` in a block dictionary, which grows as
    needed: ``values`` lists what each code stands for and ``index``
    maps a value's key back to its code.  A string or ``None`` is its
    own key; anything else is keyed by its canonical encoding, so
    ``1``, ``1.0`` and ``True`` stay apart and a list can be coded."""
    keys = column
    try:
        distinct = dict.fromkeys(column)
        plain = all(key.__class__ in _PLAIN_KEYS for key in distinct)
    except TypeError:  # an unhashable value
        plain = False
    if plain:
        originals = distinct
    else:
        keys = [
            v if v.__class__ in _PLAIN_KEYS else (fmt.encode(v),)
            for v in column
        ]
        originals = dict(zip(keys, column))
    for key in originals:
        if key not in index:
            index[key] = len(values)
            values.append(key if plain else originals[key])
    return list(map(index.__getitem__, keys))


def code_blocks(seg_id: int, columns: Columns) -> List[Dict[str, Any]]:
    """The JSON-ready blocks of one segment, in file order."""
    blocks: List[Dict[str, Any]] = []
    for kind, names in fmt.COLUMNS.items():
        held = columns.get(kind)
        if not held or not held["q"]:
            continue
        index: Dict[Any, int] = {}
        block: Dict[str, Any] = {"k": kind, "seg": seg_id, "d": []}
        for name in names:
            column = held[name]
            if name in fmt.CODED:
                column = _coded(column, index, block["d"])
            elif name == "ev":
                column = list(map(int, column))
            block[name] = column
        blocks.append(block)
        if kind == fmt.TUPLE_IDENT:
            payloads = block.pop("v")
            at = [i for i, v in enumerate(payloads) if v is not None]
            if at:
                blocks.append(
                    {
                        "k": fmt.PAYLOADS,
                        "seg": seg_id,
                        "at": at,
                        "v": [payloads[i] for i in at],
                    }
                )
    return blocks


def _rows(block: Dict[str, Any]) -> int:
    return len(block["at" if block["k"] == fmt.PAYLOADS else "q"])


def summarise(blocks: List[Dict[str, Any]]) -> Dict[str, Any]:
    """What pruning needs to know about a segment made of ``blocks``."""
    times: List[float] = []
    nodes: set = set()
    rels: set = set()
    spans: Dict[Any, List[int]] = {}
    records = events = 0
    for block in blocks:
        kind = block["k"]
        if kind == fmt.PAYLOADS:
            continue
        when, names = block[fmt.TIME[kind]], block["d"]
        times += (min(when), max(when))
        nodes.update(map(names.__getitem__, set(block["n"])))
        if "rel" in block:
            rels.update(map(names.__getitem__, set(block["rel"])))
        records += len(when)
        events += sum(block["cnt"]) if kind == fmt.LOG_BURST else len(when)
        key = {fmt.RULE_EXEC: "e", fmt.TUPLE_IDENT: "i"}.get(kind)
        if key is not None:
            for code, tid in zip(block["n"], block[key]):
                span = spans.get(names[code])
                if span is None:
                    spans[names[code]] = [tid, tid]
                elif tid < span[0]:
                    span[0] = tid
                elif tid > span[1]:
                    span[1] = tid
    rels.discard(None)
    return {
        "t0": min(times),
        "t1": max(times),
        "nodes": sorted(nodes),
        "rels": sorted(rels),
        "tids": {node: spans[node] for node in sorted(spans)},
        "records": records,
        "events": events,
        "blocks": [{"k": block["k"], "rows": _rows(block)} for block in blocks],
    }


def write_segment(
    directory: str, seg_id: int, blocks: List[Dict[str, Any]]
) -> Dict[str, Any]:
    """Write one segment file, one :func:`~repro.store.format.encode`
    per block; returns its summary (with ``file``, ``id``, ``bytes``
    and each block's byte offset) for the manifest."""
    if not blocks:
        raise ValueError("cannot write an empty segment")
    summary = summarise(blocks)
    summary["file"] = SEGMENT_PATTERN % seg_id
    summary["id"] = seg_id
    lines = [fmt.encode(block) + "\n" for block in blocks]
    position = 0
    for entry, line in zip(summary["blocks"], lines):
        entry["off"] = position
        position += len(line)
    summary["bytes"] = position
    with open(os.path.join(directory, summary["file"]), "wb") as handle:
        handle.write("".join(lines).encode("ascii"))
    return summary


class Block:
    """The rows of one kind in one segment, as coded columns."""

    __slots__ = ("kind", "rows", "cols", "names")

    def __init__(self, data: Any, kind: str, rows: int) -> None:
        """Take a decoded block of ``rows`` rows; raises ``ValueError``
        / ``TypeError`` / ``KeyError`` with the reason when its columns
        are not that."""
        names = data["d"]
        codes = set(range(len(names)))
        for name in fmt.COLUMNS[kind]:
            if name == "v":
                continue
            column = data[name]
            if not isinstance(column, list) or len(column) != rows:
                raise ValueError(
                    f"column {name} is not one entry for each of {rows} rows"
                )
            if name in fmt.CODED and not codes.issuperset(column):
                raise ValueError(
                    f"column {name} holds a code outside its dictionary "
                    f"of {len(names)}"
                )
            if name in ("q", fmt.TIME[kind]) and not _NUMBERS.issuperset(
                map(type, column)
            ):
                raise ValueError(f"column {name} holds a non-number")
        self.kind = kind
        self.rows = rows
        self.cols: Dict[str, list] = data
        # Through a dict, so a code read back as ``1.0`` still decodes.
        self.names: Dict[int, Any] = dict(enumerate(names))

    def code_of(self, value: Any) -> Optional[int]:
        for code, name in self.names.items():
            if name == value:
                return code
        return None

    def select(
        self,
        t0: Optional[float],
        t1: Optional[float],
        node: Optional[str],
        relation: Optional[str],
    ) -> Sequence[int]:
        """Row indices passing the filters, from the coded columns."""
        rows: Sequence[int] = range(self.rows)
        for name, wanted in (("n", node), ("rel", relation)):
            if wanted is None:
                continue
            column, code = self.cols.get(name), self.code_of(wanted)
            if column is None or code is None:
                return ()
            rows = [i for i in rows if column[i] == code]
        when = self.cols[fmt.TIME[self.kind]]
        if t0 is not None:
            rows = [i for i in rows if when[i] >= t0]
        if t1 is not None:
            rows = [i for i in rows if when[i] <= t1]
        return rows

    def records(
        self,
        rows: Sequence[int],
        payloads: Optional[Dict[int, list]] = None,
    ) -> List[Dict[str, Any]]:
        """The logical records of ``rows``, built a column at a time."""
        kind, cols, decode = self.kind, self.cols, self.names.__getitem__
        whole = len(rows) == self.rows
        fields = ["k"]
        gathered: List[Iterable] = [repeat(kind)]
        for name in fmt.COLUMNS[kind]:
            if name in ("q", "v"):
                continue
            column = cols[name]
            if not whole:
                column = [column[i] for i in rows]
            if name in fmt.CODED:
                column = map(decode, column)
            elif name == "ev":
                column = map(bool, column)
            fields.append(name)
            gathered.append(column)
        if kind == fmt.RULE_EXEC:
            fields.append("t")
            gathered.append(gathered[fields.index("to")])
        out = [dict(zip(fields, values)) for values in zip(*gathered)]
        if kind == fmt.TUPLE_IDENT:
            held = (payloads or {}).get
            for record, i in zip(out, rows):
                values = held(i)
                if values is None:
                    del record["rel"]
                else:
                    record["rep"] = {"rel": record["rel"], "v": values}
        elif kind == fmt.LOG_BURST:
            for record in out:
                record["tl"] = record["t"]
                if record["op"] is None:
                    del record["op"]
        return out

    def keys(self, rows: Sequence[int]) -> PyTuple[list, list]:
        """The ``t`` and the ``q`` of ``rows``: what a scan orders by."""
        when, seq = self.cols[fmt.TIME[self.kind]], self.cols["q"]
        if len(rows) != self.rows:
            when, seq = [when[i] for i in rows], [seq[i] for i in rows]
        return when, seq

    def rows_of(self, node: str, tid: int) -> List[int]:
        """Rows whose lookup key — the effect of an ``re`` row, the id
        of a ``tt`` row — is ``tid`` on ``node``, in capture order.

        A lookup asks a block for one or two ids, so the key column is
        searched (``list.index``, from just past the last hit) rather
        than indexed whole; the few hits then have their node checked.
        """
        code = self.code_of(node)
        if code is None:
            return []
        keys = self.cols["e" if self.kind == fmt.RULE_EXEC else "i"]
        nodes = self.cols["n"]
        rows: List[int] = []
        at = -1
        try:
            while True:
                at = keys.index(tid, at + 1)
                if nodes[at] == code:
                    rows.append(at)
        except ValueError:  # no further hit
            return rows


def _loaded(data: Any, kind: str, seg_id: int, rows: int) -> Any:
    """A decoded block in the form reads use — a :class:`Block`, or for
    payloads ``tt`` row -> values — checked against what the summary
    says it is; raises ``ValueError`` / ``TypeError`` / ``KeyError``
    with the reason when it is something else."""
    if data["k"] != kind or data["seg"] != seg_id:
        raise ValueError(f"not the {kind} block of segment {seg_id}")
    if kind != fmt.PAYLOADS:
        return Block(data, kind, rows)
    if not len(data["at"]) == len(data["v"]) == rows:
        raise ValueError(f"not one payload for each of {rows} rows")
    return dict(zip(data["at"], data["v"]))


class Segment:
    """One segment: its summary, and its blocks read on demand.

    A scan parses the blocks it needs and keeps none of them; provenance
    lookups keep theirs, so a warm lookup touches no file.  ``held``
    makes a segment of blocks that are already in memory — the
    unflushed tail of a live store.
    """

    def __init__(
        self,
        directory: str,
        summary: Dict[str, Any],
        held: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.summary = summary
        self.seg_id: int = summary["id"]
        self.path = os.path.join(directory, summary["file"])
        self.t0, self.t1 = summary["t0"], summary["t1"]
        self._nodes = frozenset(summary["nodes"])
        self._rels = frozenset(summary["rels"])
        self._tids: Dict[str, List[int]] = summary["tids"]
        #: kind -> (byte offset, byte length, rows) of its block.
        self._spans: Dict[str, PyTuple[int, int, int]] = {}
        entries = summary["blocks"]
        ends = [entry["off"] for entry in entries[1:]] + [summary["bytes"]]
        for entry, end in zip(entries, ends):
            off = entry["off"]
            self._spans[entry["k"]] = (off, end - off, entry["rows"])
        #: kind -> Block (payloads: ``tt`` row -> values), once kept.
        self._held: Dict[str, Any] = {} if held is None else held

    @classmethod
    def of_blocks(
        cls, directory: str, seg_id: int, blocks: List[Dict[str, Any]]
    ) -> "Segment":
        """A segment of blocks that were never written: all held, none
        with anywhere in a file to be read from."""
        summary = summarise(blocks)
        summary.update(file=SEGMENT_PATTERN % seg_id, id=seg_id, bytes=0)
        held: Dict[str, Any] = {}
        for block, entry in zip(blocks, summary["blocks"]):
            entry["off"] = 0
            held[block["k"]] = _loaded(block, block["k"], seg_id, entry["rows"])
        return cls(directory, summary, held)

    # ------------------------------------------------------------------
    # Pruning

    def overlaps_time(self, t0: Optional[float], t1: Optional[float]) -> bool:
        if t0 is not None and self.t1 < t0:
            return False
        if t1 is not None and self.t0 > t1:
            return False
        return True

    def has_node(self, node: Optional[str]) -> bool:
        return node is None or node in self._nodes

    def has_relation(self, relation: Optional[str]) -> bool:
        return relation is None or relation in self._rels

    def may_hold_tid(self, node: str, tid: int) -> bool:
        span = self._tids.get(node)
        return span is not None and span[0] <= tid <= span[1]

    # ------------------------------------------------------------------
    # Blocks

    def fetch(self, kinds: Sequence[str], keep: bool = False) -> Dict[str, Any]:
        """The blocks of ``kinds`` this segment has, by kind: held ones
        as they are, the rest read from the file (opened once) and,
        with ``keep``, held from now on."""
        found = {kind: self._held[kind] for kind in kinds if kind in self._held}
        missing = [k for k in self._spans if k in kinds and k not in found]
        if missing:
            try:
                with open(self.path, "rb") as handle:
                    for kind in missing:
                        off, length, _ = self._spans[kind]
                        handle.seek(off)
                        found[kind] = self._parse(kind, handle.read(length))
            except OSError as exc:
                raise StoreCorruptionError(
                    self.path, f"unreadable segment: {exc!r}"
                ) from exc
            if keep:
                self._held.update(found)
        return found

    def _parse(self, kind: str, data: bytes) -> Any:
        off, length, rows = self._spans[kind]
        try:
            if len(data) != length:
                raise ValueError(
                    f"file ends {len(data)} bytes into a block of {length}"
                )
            return _loaded(
                fmt.decode(data.decode("ascii")), kind, self.seg_id, rows
            )
        except (ValueError, TypeError, KeyError) as exc:
            raise StoreCorruptionError(
                self.path, f"undecodable or stale block: {exc}",
                block=kind, offset=off,
            ) from None

    # ------------------------------------------------------------------
    # Reads

    def scan(
        self,
        t0: Optional[float],
        t1: Optional[float],
        node: Optional[str],
        relation: Optional[str],
        kind: Optional[str],
    ) -> List[PyTuple[float, int, Dict[str, Any]]]:
        """``(t, q, record)`` of every event passing the filters."""
        kinds = [
            k
            for k, names in fmt.COLUMNS.items()
            if kind in (None, k) and (relation is None or "rel" in names)
        ]
        if fmt.TUPLE_IDENT in kinds:
            kinds.append(fmt.PAYLOADS)
        blocks = self.fetch(kinds)
        payloads = blocks.pop(fmt.PAYLOADS, None)
        out: List[PyTuple[float, int, Dict[str, Any]]] = []
        for block in blocks.values():
            rows = block.select(t0, t1, node, relation)
            if len(rows):
                out.extend(zip(*block.keys(rows), block.records(rows, payloads)))
        return out

    def edges_to(self, node: str, tid: int) -> List[Dict[str, Any]]:
        """``re`` records whose effect is ``tid``, in capture order."""
        block = self.fetch((fmt.RULE_EXEC,), keep=True).get(fmt.RULE_EXEC)
        if block is None:
            return []
        return block.records(block.rows_of(node, tid))

    def source_of(self, node: str, tid: int) -> Optional[PyTuple]:
        """The ``(s, si)`` of the last ``tt`` row written for ``tid``."""
        block = self.fetch((fmt.TUPLE_IDENT,), keep=True).get(fmt.TUPLE_IDENT)
        rows = block.rows_of(node, tid) if block is not None else []
        if not rows:
            return None
        return block.names[block.cols["s"][rows[-1]]], block.cols["si"][rows[-1]]

    def contents_of(self, node: str, tid: int) -> Optional[Dict[str, Any]]:
        """The payload of the first ``tt`` row of ``tid`` carrying one."""
        blocks = self.fetch((fmt.TUPLE_IDENT, fmt.PAYLOADS), keep=True)
        block, payloads = blocks.get(fmt.TUPLE_IDENT), blocks.get(fmt.PAYLOADS)
        if block is None or payloads is None:
            return None
        for row in block.rows_of(node, tid):
            if row in payloads:
                rel = block.names[block.cols["rel"][row]]
                return {"rel": rel, "v": payloads[row]}
        return None
