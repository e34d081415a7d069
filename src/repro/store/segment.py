"""Append-only segment files with columnar index sidecars.

A segment is one immutable JSONL file (``seg-NNNNNN.jsonl``, one
canonical-JSON record per line) plus a sidecar (``seg-NNNNNN.idx.json``)
holding:

- a **summary** — virtual-clock time range, node set, relation set,
  per-node tuple-id ranges, record/event counts, byte size — used to
  prune whole segments from a query or a backward-slice lookup without
  touching the data file;
- **columns** — parallel arrays (``t``, ``k``, ``n``, ``rel``, ``tid``,
  ``off``) over the segment's records, used to select the few matching
  lines and read them by byte offset instead of parsing the whole file.

Both files are byte-stable for a given record sequence, so a seeded run
produces an identical store every time.

Reads answer from the sidecar and touch the data file only for the rows
they return: selection and the provenance indexes come from the columns
(only ``re.b`` rows are decoded to index their effect arrays), and rows
are cut out of the file's text by offset and decoded a batch at a time.
Because the sidecar is load-bearing, every fetched row is checked
against its column entries and any disagreement, truncation or
undecodable line raises :class:`~repro.errors.StoreCorruptionError`.
"""

from __future__ import annotations

import os
from bisect import bisect_right
from operator import itemgetter
from typing import Any, Dict, Iterator, List, Optional, Sequence
from typing import Tuple as PyTuple

from repro.errors import StoreCorruptionError
from repro.store import format as fmt

SEGMENT_PATTERN = "seg-%06d"

#: A provenance index: node -> tuple id -> row indices, in row order.
_TidIndex = Dict[Any, Dict[int, List[int]]]

#: The sidecar's parallel arrays, one entry per record.
COLUMNS = ("t", "k", "n", "rel", "tid", "off")


def _summary_of(records: List[Dict[str, Any]], size: int) -> Dict[str, Any]:
    # A burst's ``t`` is its last member's time; its window opens at ``tf``.
    t_min = min(r.get("tf", r["t"]) for r in records)
    t_max = max(r["t"] for r in records)
    nodes = sorted({r["n"] for r in records})
    rels = sorted({r["rel"] for r in records if "rel" in r})
    kinds = sorted({r["k"] for r in records})
    tids: Dict[str, List[int]] = {}
    for record in records:
        ids = fmt.record_tids(record)
        if not ids:
            continue
        node = record["n"]
        lo, hi = min(ids), max(ids)
        span = tids.get(node)
        if span is None:
            tids[node] = [lo, hi]
        else:
            span[0] = min(span[0], lo)
            span[1] = max(span[1], hi)
    return {
        "t0": t_min,
        "t1": t_max,
        "nodes": nodes,
        "rels": rels,
        "kinds": kinds,
        "tids": {n: tids[n] for n in sorted(tids)},
        "records": len(records),
        "events": sum(fmt.logical_events(r) for r in records),
        "bytes": size,
    }


def write_segment(
    directory: str, seg_id: int, records: List[Dict[str, Any]]
) -> Dict[str, Any]:
    """Write one segment + sidecar; returns the sidecar's summary dict
    (augmented with ``file``/``index`` names) for the manifest."""
    if not records:
        raise ValueError("cannot write an empty segment")
    base = SEGMENT_PATTERN % seg_id
    data_path = os.path.join(directory, base + ".jsonl")
    index_path = os.path.join(directory, base + ".idx.json")
    offsets: List[int] = []
    position = 0
    with open(data_path, "wb") as handle:
        for record in records:
            offsets.append(position)
            line = (fmt.encode(record) + "\n").encode("ascii")
            handle.write(line)
            position += len(line)
    summary = _summary_of(records, position)
    summary["file"] = base + ".jsonl"
    summary["index"] = base + ".idx.json"
    summary["id"] = seg_id
    columns = {
        "t": [r["t"] for r in records],
        "k": [r["k"] for r in records],
        "n": [r["n"] for r in records],
        "rel": [r.get("rel") for r in records],
        "tid": [_tid_column(r) for r in records],
        "off": offsets,
    }
    with open(index_path, "w") as handle:
        handle.write(fmt.encode({"summary": summary, "columns": columns}))
    return summary


def _tid_column(record: Dict[str, Any]) -> Optional[int]:
    """The ``tid`` column entry of one record: a plain ``re`` row is
    indexed by its effect, a ``tt`` row by its id, nothing else is."""
    if record["k"] == fmt.RULE_EXEC:
        return record["e"]
    return record.get("i")


#: Columns every fetched row is held against, with the record field
#: each was written from.
_CHECKED_COLUMNS = (
    ("k", itemgetter("k")),
    ("n", itemgetter("n")),
    ("tid", _tid_column),
)


class SegmentReader:
    """Lazy reader over one written segment.

    Every query parses the sidecar plus the rows it returns: the
    sidecar's columns pick row indices, and :meth:`rows_at` — the one
    way rows leave the data file — cuts those rows out of the segment's
    text by offset and decodes them in one parser call.
    """

    def __init__(
        self, directory: str, summary: Dict[str, Any]
    ) -> None:
        self.directory = directory
        self.summary = summary
        self.seg_id = summary["id"]
        self._columns: Optional[Dict[str, List[Any]]] = None
        self._columns_shared = False
        # The data file's text (canonical JSON is ASCII: byte offsets
        # are character offsets) and each row's end, read once.
        self._text: Optional[str] = None
        self._ends: List[int] = []
        # (effect, identity) indexes, built from the sidecar on the
        # first provenance lookup into this segment; the rows those
        # lookups have fetched are memoised beside them.
        self._indexes: Optional[PyTuple[_TidIndex, _TidIndex]] = None
        self._provenance_rows: Dict[int, Dict[str, Any]] = {}

    # ------------------------------------------------------------------
    # Pruning

    def overlaps_time(self, t0: Optional[float], t1: Optional[float]) -> bool:
        if t0 is not None and self.summary["t1"] < t0:
            return False
        if t1 is not None and self.summary["t0"] > t1:
            return False
        return True

    def has_node(self, node: Optional[str]) -> bool:
        return node is None or node in self.summary["nodes"]

    def has_relation(self, relation: Optional[str]) -> bool:
        return relation is None or relation in self.summary["rels"]

    def may_hold_tid(self, node: str, tid: int) -> bool:
        span = self.summary["tids"].get(node)
        return span is not None and span[0] <= tid <= span[1]

    # ------------------------------------------------------------------
    # Data access

    @property
    def data_path(self) -> str:
        return os.path.join(self.directory, self.summary["file"])

    @property
    def index_path(self) -> str:
        return os.path.join(self.directory, self.summary["index"])

    def columns(self) -> Dict[str, List[Any]]:
        if self._columns is None:
            try:
                with open(self.index_path) as handle:
                    sidecar = fmt.decode(handle.read())
                summary, columns = sidecar["summary"], sidecar["columns"]
                if {len(columns[name]) for name in COLUMNS} != {
                    summary["records"]
                }:
                    raise ValueError("a column is not one entry per record")
            except (OSError, ValueError, KeyError, TypeError) as exc:
                raise StoreCorruptionError(
                    self.index_path, f"unreadable sidecar: {exc!r}"
                ) from exc
            if summary != self.summary:
                raise StoreCorruptionError(
                    self.index_path,
                    "sidecar does not carry the manifest's summary of "
                    f"segment {self.seg_id}",
                )
            self._columns = columns
        return self._columns

    def _load_text(self) -> str:
        """Read the data file once: it must be ASCII text of the size
        the manifest recorded, which is what the offsets index into."""
        size = self.summary["bytes"]
        try:
            with open(self.data_path, "rb") as handle:
                data = handle.read()
        except OSError as exc:
            raise StoreCorruptionError(
                self.data_path, f"unreadable segment: {exc!r}"
            ) from exc
        if len(data) != size:
            raise self._fault_at(
                min(len(data), size),
                f"file is {len(data)} bytes, manifest says {size}",
            )
        try:
            self._text = data.decode("ascii")
        except UnicodeDecodeError as exc:
            raise self._fault_at(
                exc.start, f"non-ASCII byte at {exc.start}"
            ) from None
        self._ends = self.columns()["off"][1:] + [size]
        return self._text

    def _fault_at(self, position: int, reason: str) -> StoreCorruptionError:
        """A fault at one byte of the data file, blamed on its row."""
        offsets = self.columns()["off"]
        row = max(bisect_right(offsets, position) - 1, 0)
        return StoreCorruptionError(
            self.data_path, reason, row=row, offset=offsets[row]
        )

    def records_at(self, indices: Sequence[int]) -> List[Dict[str, Any]]:
        """The records at the given row indices."""
        return self.rows_at(indices)[1]

    def rows_at(
        self, indices: Sequence[int]
    ) -> PyTuple[List[str], List[Dict[str, Any]]]:
        """Stored lines and their decoded records at the given rows.

        Lines are cut out of the segment's text by the ``off`` column
        and decoded together; each record is then held against its
        ``k`` / ``n`` / ``tid`` column entries, so a sidecar that does
        not describe this data file is an error, never a wrong answer.
        """
        text = self._text if self._text is not None else self._load_text()
        starts, ends = self.columns()["off"], self._ends
        lines = [text[starts[i] : ends[i] - 1] for i in indices]
        try:
            return lines, self._decode(indices, lines)
        except (ValueError, TypeError, KeyError):
            pass
        # The batch is bad: repeat the check a row at a time, only to
        # name the row.
        for i, line in zip(indices, lines):
            try:
                self._decode([i], [line])
            except (ValueError, TypeError, KeyError) as exc:
                raise StoreCorruptionError(
                    self.data_path,
                    f"undecodable or stale row: {exc}",
                    row=i,
                    offset=starts[i],
                ) from None
        raise StoreCorruptionError(
            self.data_path, "rows do not decode as one record per line"
        )

    def _decode(
        self, indices: Sequence[int], lines: List[str]
    ) -> List[Dict[str, Any]]:
        """Decode ``lines`` in one parser call and hold the records
        against the sidecar's entries for rows ``indices``."""
        records = fmt.decode_many(lines)
        if len(records) != len(lines):
            raise ValueError("not one record per line")
        columns = self.columns()
        for name, field in _CHECKED_COLUMNS:
            got = [field(r) for r in records]
            want = [columns[name][i] for i in indices]
            if got != want:
                raise ValueError(f"{name} is {got}, sidecar says {want}")
        return records

    def records(self) -> List[Dict[str, Any]]:
        """All records of the segment."""
        return self.records_at(range(len(self.columns()["off"])))

    def select(
        self,
        t0: Optional[float] = None,
        t1: Optional[float] = None,
        node: Optional[str] = None,
        relation: Optional[str] = None,
        kind: Optional[str] = None,
    ) -> List[Dict[str, Any]]:
        """Records matching the filters (see :meth:`select_rows`)."""
        return self.records_at(self.select_rows(t0, t1, node, relation, kind))

    def scan_rows(
        self, *filters: Any
    ) -> PyTuple[List[str], List[Dict[str, Any]]]:
        """:meth:`rows_at` of :meth:`select_rows`, for a scan.

        A scan passes over the segment once, and over many segments:
        the file text is not kept, and the columns, which are, are left
        holding one string per distinct ``k`` / ``n`` / ``rel`` value
        instead of the one per row the parser handed back.  (Not done
        in :meth:`columns`: a cold slice reads a dozen sidecars to
        return a dozen rows, and that pass was a tenth of its time.)
        """
        rows = self.rows_at(self.select_rows(*filters))
        self._text, self._ends = None, []
        if not self._columns_shared:
            columns, share = self.columns(), {}.setdefault
            for name in ("k", "n", "rel"):
                columns[name] = list(map(share, columns[name], columns[name]))
            self._columns_shared = True
        return rows

    def select_rows(
        self,
        t0: Optional[float] = None,
        t1: Optional[float] = None,
        node: Optional[str] = None,
        relation: Optional[str] = None,
        kind: Optional[str] = None,
    ) -> List[int]:
        """Row indices matching the filters, from the sidecar alone.

        Relation filtering matches plain records by their ``rel``
        column; burst records (whose column entry can be ``None`` for
        ``re.b``) are matched by expansion at the caller's level, so
        this returns them when the other filters pass.  For the same
        reason ``kind="re"`` admits ``re.b`` rows: each stands for a
        run of ``re`` records the caller expands and filters, and its
        ``t`` column is the *last* member's time, so ``t1`` cannot rule
        the row out — earlier members may still fall inside the window.
        """
        kinds = (kind, fmt.RULE_BURST) if kind == fmt.RULE_EXEC else (kind,)
        columns = self.columns()
        t_col, k_col, n_col, rel_col = (
            columns["t"],
            columns["k"],
            columns["n"],
            columns["rel"],
        )
        indices: List[int] = []
        for i in range(len(t_col)):
            if t0 is not None and t_col[i] < t0:
                continue
            if (
                t1 is not None
                and t_col[i] > t1
                and k_col[i] != fmt.RULE_BURST
            ):
                continue
            if node is not None and n_col[i] != node:
                continue
            if kind is not None and k_col[i] not in kinds:
                continue
            if relation is not None:
                rel = rel_col[i]
                if rel is not None and rel != relation:
                    continue
                if rel is None and k_col[i] not in (
                    fmt.RULE_BURST,
                    fmt.TUPLE_IDENT,
                ):
                    continue
            indices.append(i)
        return indices

    # ------------------------------------------------------------------
    # Provenance indexes (backward slicing)

    def _provenance(self) -> PyTuple[_TidIndex, _TidIndex]:
        """The (effect, identity) indexes: node -> tid -> row indices.

        Built from the sidecar's ``k`` / ``n`` / ``tid`` columns; only
        ``re.b`` rows are decoded, because their effects are an array
        inside the record.
        """
        if self._indexes is None:
            columns = self.columns()
            k_col, n_col, tid_col = columns["k"], columns["n"], columns["tid"]
            self._held_rows(
                [i for i, kind in enumerate(k_col) if kind == fmt.RULE_BURST]
            )
            effect: _TidIndex = {}
            ident: _TidIndex = {}
            for i, kind in enumerate(k_col):
                if kind == fmt.RULE_EXEC:
                    effect.setdefault(n_col[i], {}).setdefault(
                        tid_col[i], []
                    ).append(i)
                elif kind == fmt.RULE_BURST:
                    per_node = effect.setdefault(n_col[i], {})
                    for e in self._provenance_rows[i]["e"]:
                        per_node.setdefault(e, []).append(i)
                elif kind == fmt.TUPLE_IDENT:
                    ident.setdefault(n_col[i], {}).setdefault(
                        tid_col[i], []
                    ).append(i)
            self._indexes = effect, ident
        return self._indexes

    def _held_rows(self, indices: List[int]) -> List[Dict[str, Any]]:
        """Rows for a provenance lookup, fetched once per reader: a
        warm lookup touches no file and returns the very records the
        cold one did."""
        held = self._provenance_rows
        missing = [i for i in indices if i not in held]
        if missing:
            held.update(zip(missing, self.records_at(missing)))
        return [held[i] for i in indices]

    def edges_to(self, node: str, tid: int) -> List[Dict[str, Any]]:
        """``re`` records (bursts expanded) whose effect is ``tid``."""
        indices = self._provenance()[0].get(node, {}).get(tid, [])
        out: List[Dict[str, Any]] = []
        for record in self._held_rows(indices):
            out.extend(_expand_for_effect(record, tid))
        return out

    def ident_rows(self, node: str, tid: int) -> List[Dict[str, Any]]:
        """``tt`` records for one tuple id, in write order."""
        indices = self._provenance()[1].get(node, {}).get(tid, [])
        return self._held_rows(indices)


def _expand_for_effect(
    record: Dict[str, Any], tid: int
) -> Iterator[Dict[str, Any]]:
    if record["k"] == fmt.RULE_EXEC:
        if record["e"] == tid:
            yield record
        return
    for i, effect in enumerate(record["e"]):
        if effect == tid:
            yield fmt.rule_exec_record(
                record["n"],
                record["r"],
                record["c"][i],
                effect,
                record["ti"][i],
                record["to"][i],
                record["ev"],
            )
