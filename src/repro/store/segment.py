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
"""

from __future__ import annotations

import json
import os
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.store import format as fmt

SEGMENT_PATTERN = "seg-%06d"


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
    with open(data_path, "w") as handle:
        for record in records:
            offsets.append(position)
            line = fmt.encode(record) + "\n"
            handle.write(line)
            position += len(line.encode("utf-8"))
    summary = _summary_of(records, position)
    summary["file"] = base + ".jsonl"
    summary["index"] = base + ".idx.json"
    summary["id"] = seg_id
    columns = {
        "t": [r["t"] for r in records],
        "k": [r["k"] for r in records],
        "n": [r["n"] for r in records],
        "rel": [r.get("rel") for r in records],
        "tid": [
            (r["e"] if r["k"] == fmt.RULE_EXEC else r.get("i"))
            for r in records
        ],
        "off": offsets,
    }
    with open(index_path, "w") as handle:
        json.dump(
            {"summary": summary, "columns": columns},
            handle,
            sort_keys=True,
            separators=(",", ":"),
        )
    return summary


class SegmentReader:
    """Lazy reader over one written segment."""

    def __init__(
        self, directory: str, summary: Dict[str, Any]
    ) -> None:
        self.directory = directory
        self.summary = summary
        self.seg_id = summary["id"]
        self._columns: Optional[Dict[str, List[Any]]] = None
        self._records: Optional[List[Dict[str, Any]]] = None
        # Per-node map: effect tid -> indices of re/re.b records, built
        # on first provenance lookup into this segment.
        self._effect_index: Optional[Dict[Any, Dict[int, List[int]]]] = None
        self._ident_index: Optional[Dict[Any, Dict[int, List[int]]]] = None

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

    def columns(self) -> Dict[str, List[Any]]:
        if self._columns is None:
            with open(
                os.path.join(self.directory, self.summary["index"])
            ) as handle:
                self._columns = json.load(handle)["columns"]
        return self._columns

    def records(self) -> List[Dict[str, Any]]:
        """All records of the segment (cached after first load)."""
        if self._records is None:
            with open(self.data_path) as handle:
                self._records = [
                    fmt.decode(line) for line in handle if line.strip()
                ]
        return self._records

    def records_at(self, indices: List[int]) -> List[Dict[str, Any]]:
        """Read just the records at the given row indices, by offset."""
        if self._records is not None:
            return [self._records[i] for i in indices]
        offsets = self.columns()["off"]
        out: List[Dict[str, Any]] = []
        with open(self.data_path) as handle:
            for i in indices:
                handle.seek(offsets[i])
                out.append(fmt.decode(handle.readline()))
        return out

    def select(
        self,
        t0: Optional[float] = None,
        t1: Optional[float] = None,
        node: Optional[str] = None,
        relation: Optional[str] = None,
        kind: Optional[str] = None,
    ) -> List[Dict[str, Any]]:
        """Records matching the filters, via the columnar sidecar.

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
        return self.records_at(indices)

    # ------------------------------------------------------------------
    # Provenance indexes (backward slicing)

    def _build_provenance(self) -> None:
        effect: Dict[Any, Dict[int, List[int]]] = {}
        ident: Dict[Any, Dict[int, List[int]]] = {}
        for i, record in enumerate(self.records()):
            kind = record["k"]
            node = record["n"]
            if kind == fmt.RULE_EXEC:
                effect.setdefault(node, {}).setdefault(
                    record["e"], []
                ).append(i)
            elif kind == fmt.RULE_BURST:
                per_node = effect.setdefault(node, {})
                for e in record["e"]:
                    per_node.setdefault(e, []).append(i)
            elif kind == fmt.TUPLE_IDENT:
                ident.setdefault(node, {}).setdefault(
                    record["i"], []
                ).append(i)
        self._effect_index = effect
        self._ident_index = ident

    def edges_to(self, node: str, tid: int) -> List[Dict[str, Any]]:
        """``re`` records (bursts expanded) whose effect is ``tid``."""
        if self._effect_index is None:
            self._build_provenance()
        indices = self._effect_index.get(node, {}).get(tid, [])
        out: List[Dict[str, Any]] = []
        records = self.records()
        for i in indices:
            for edge in _expand_for_effect(records[i], tid):
                out.append(edge)
        return out

    def ident_rows(self, node: str, tid: int) -> List[Dict[str, Any]]:
        """``tt`` records for one tuple id, in write order."""
        if self._ident_index is None:
            self._build_provenance()
        indices = self._ident_index.get(node, {}).get(tid, [])
        records = self.records()
        return [records[i] for i in indices]


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
