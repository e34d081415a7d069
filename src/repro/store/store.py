"""The durable forensic event store.

:class:`ForensicStore` taps the introspection plane of a running
:class:`~repro.core.system.System` — the tracer's ``ruleExec`` table,
the tuple registry's identity writes, the event logger's ``tupleLog`` /
``tableLog`` — and spills everything to append-only segment files with
columnar index sidecars (:mod:`repro.store.segment`), applying burst
compression on the way down (:mod:`repro.store.compress`).  The
in-memory introspection rings stay exactly as they were: bounded,
fast, queryable from OverLog.  The store is the history that survives
when they rotate.

Write path: records accumulate in a bounded buffer; when the buffer
reaches ``segment_events`` the store cuts a segment.  Under the batch
kernel the cut is deferred to the next tick barrier (segments align to
tick boundaries); under the legacy loop it happens inline.  ``close()``
flushes the remainder and (re)writes ``manifest.json``.

Read path: :meth:`iter_events` / :meth:`events` for filtered scans
(time / relation / node / kind), streamed in time order, and the
provenance lookups (:meth:`edges_to`, :meth:`source_of`,
:meth:`contents_of`, :meth:`tid_of`) that back
:mod:`repro.store.slicing`.  Reads see buffered-but-unflushed records
too, so a live query never misses the tail.
"""

from __future__ import annotations

import os
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import partial
from itertools import groupby, islice
from operator import itemgetter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple as PyTuple

from repro.errors import ReproError, StoreCorruptionError
from repro.runtime.table import InsertOutcome
from repro.store import format as fmt
from repro.store.compress import (
    BurstCompressor,
    DEFAULT_NOISE_RELATIONS,
    expand,
)
from repro.store.segment import SegmentReader, write_segment

MANIFEST = "manifest.json"

#: The introspection rings the store taps (and watches for rotation).
RINGS = ("ruleExec", "tupleLog", "tableLog", "tupleTable")


@dataclass
class StoreConfig:
    """Knobs of one forensic store."""

    #: Directory segments are written into (created on first flush).
    directory: str
    #: Records per segment (the buffer bound — memory stays O(this)).
    segment_events: int = 4096
    #: Burst compression on/off.
    compress: bool = True
    #: Relations whose log entries are *counted* (lossy) when bursty.
    noise_relations: PyTuple = DEFAULT_NOISE_RELATIONS


class ForensicStore:
    """One durable event store serving a whole system (see module doc)."""

    def __init__(
        self,
        config: StoreConfig,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.config = config
        self._clock = clock if clock is not None else (lambda: 0.0)
        self._compressor = (
            BurstCompressor(noise_relations=config.noise_relations)
            if config.compress
            else None
        )
        self._buffer: List[Dict[str, Any]] = []
        self._segments: List[SegmentReader] = []
        self._next_seg = 1
        self._dir_ready = False
        #: Deferred-cut mode: True once registered on a batch kernel's
        #: tick-barrier hook (segments then align to tick boundaries).
        self.tick_mode = False
        # Per-node set of tuple ids whose payload was already persisted.
        self._payloaded: Dict[str, set] = {}
        # Counters (exported as store_* metrics).
        self.events_appended = 0
        self.records_written = 0
        self.segments_written = 0
        self.bytes_written = 0
        self.bursts_written = 0
        self.flushes = 0
        #: Ring rotations observed, keyed ``(node, ring)`` (mirrors the
        #: system-level counter so store readers can see it offline).
        self.ring_rotations: Dict[PyTuple, int] = {}
        self.closed = False

    # ------------------------------------------------------------------
    # Opening an existing store (CLI, post-mortem)

    @classmethod
    def open(cls, directory: str) -> "ForensicStore":
        """Open a written store read-only from its manifest."""
        path = os.path.join(directory, MANIFEST)
        if not os.path.exists(path):
            raise ReproError(f"no forensic store manifest at {path}")
        store = cls(StoreConfig(directory=directory))
        try:
            with open(path) as handle:
                manifest = fmt.decode(handle.read())
            for summary in manifest["segments"]:
                store._segments.append(SegmentReader(directory, summary))
            store._next_seg = manifest["next_segment"]
            store.events_appended = manifest["totals"]["events"]
            store.records_written = manifest["totals"]["records"]
            store.segments_written = len(store._segments)
            store.bytes_written = manifest["totals"]["bytes"]
            store.bursts_written = manifest["totals"]["bursts"]
            store.ring_rotations = {
                (entry["node"], entry["ring"]): entry["count"]
                for entry in manifest.get("ring_rotations", [])
            }
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise StoreCorruptionError(
                path, f"unreadable manifest: {exc!r}"
            ) from exc
        store.closed = True
        return store

    # ------------------------------------------------------------------
    # Wiring

    def attach_node(self, node, tracer=None, logger=None) -> None:
        """Tap one node's introspection hooks.

        ``tracer`` contributes ``ruleExec`` edges and (through its
        registry) tuple identity + payloads; ``logger`` contributes the
        event logs.  A node with neither contributes nothing.
        """
        address = str(node.address)
        if tracer is not None:
            table = node.store.get("ruleExec")
            table.on_insert.append(
                lambda row, outcome, _a=address: self._on_rule_exec(
                    _a, row, outcome
                )
            )
            tracer.registry.on_register.append(
                lambda tid, src, src_tid, loc, tup, _a=address: (
                    self._on_register(_a, tid, src, src_tid, loc, tup)
                )
            )
        if logger is not None:
            node.store.get("tupleLog").on_insert.append(
                lambda row, outcome, _a=address: self._on_tuple_log(_a, row)
            )
            node.store.get("tableLog").on_insert.append(
                lambda row, outcome, _a=address: self._on_table_log(_a, row)
            )

    def ring_rotated(self, node: str, ring: str) -> None:
        """Count one ring eviction (driven by the system's watcher)."""
        key = (node, ring)
        self.ring_rotations[key] = self.ring_rotations.get(key, 0) + 1

    # ------------------------------------------------------------------
    # Capture callbacks

    def _on_rule_exec(self, node: str, row, outcome) -> None:
        if outcome is InsertOutcome.REFRESHED:
            return
        _, rule, cause, effect, in_t, out_t, is_event = row.values
        self._append(
            fmt.rule_exec_record(
                node, rule, cause, effect, in_t, out_t, is_event
            )
        )

    def _on_register(self, node, tid, src, src_tid, loc, tup) -> None:
        payload = None
        if tup is not None:
            seen = self._payloaded.setdefault(node, set())
            if tid not in seen:
                seen.add(tid)
                payload = fmt.tuple_payload(tup)
        self._append(
            fmt.tuple_ident_record(
                node, tid, src, src_tid, loc, self._clock(), payload
            )
        )

    def _on_tuple_log(self, node: str, row) -> None:
        _, seq, when, rel, text = row.values
        self._append(fmt.tuple_log_record(node, seq, when, rel, text))

    def _on_table_log(self, node: str, row) -> None:
        _, seq, when, rel, op, text = row.values
        self._append(fmt.table_log_record(node, seq, when, rel, op, text))

    # ------------------------------------------------------------------
    # Write path

    def _append(self, record: Dict[str, Any]) -> None:
        if self.closed:
            return
        self._buffer.append(record)
        self.events_appended += 1
        if (
            not self.tick_mode
            and len(self._buffer) >= self.config.segment_events
        ):
            self.flush_segment()

    def on_tick_barrier(self, when: float) -> None:
        """Tick-barrier hook (batch kernel): cut full segments now."""
        while len(self._buffer) >= self.config.segment_events:
            self.flush_segment()

    def flush_segment(self) -> None:
        """Cut one segment from the buffer head (no-op when empty)."""
        if not self._buffer:
            return
        count = min(len(self._buffer), self.config.segment_events)
        chunk = self._buffer[:count]
        del self._buffer[:count]
        if self._compressor is not None:
            chunk = self._compressor.compress(self._compressor.layout(chunk))
        if not self._dir_ready:
            os.makedirs(self.config.directory, exist_ok=True)
            self._dir_ready = True
        summary = write_segment(self.config.directory, self._next_seg, chunk)
        self._segments.append(
            SegmentReader(self.config.directory, summary)
        )
        self._next_seg += 1
        self.segments_written += 1
        self.records_written += summary["records"]
        self.bytes_written += summary["bytes"]
        self.bursts_written += sum(
            1 for r in chunk if r["k"] in (fmt.RULE_BURST, fmt.LOG_BURST)
        )
        self.flushes += 1
        self._write_manifest()

    def close(self) -> None:
        """Flush everything and finalize the manifest."""
        if not self._buffer:
            self._write_manifest()  # otherwise the last cut writes it
        while self._buffer:
            self.flush_segment()
        self.closed = True

    def _write_manifest(self) -> None:
        if not self._dir_ready:
            os.makedirs(self.config.directory, exist_ok=True)
            self._dir_ready = True
        manifest = {
            "version": 1,
            "segments": [s.summary for s in self._segments],
            "next_segment": self._next_seg,
            "totals": {
                "events": self.events_appended - len(self._buffer),
                "records": self.records_written,
                "bytes": self.bytes_written,
                "bursts": self.bursts_written,
            },
            "ring_rotations": [
                {"node": node, "ring": ring, "count": count}
                for (node, ring), count in sorted(self.ring_rotations.items())
            ],
        }
        path = os.path.join(self.config.directory, MANIFEST)
        with open(path, "w") as handle:
            handle.write(fmt.encode(manifest))

    # ------------------------------------------------------------------
    # Introspection

    @property
    def compression_ratio(self) -> float:
        """Logical events per physical record in written segments."""
        if self.records_written == 0:
            return 1.0
        flushed = sum(s.summary["events"] for s in self._segments)
        return flushed / self.records_written

    def segment_files(self) -> List[str]:
        """Written segment file names, in order."""
        return [s.summary["file"] for s in self._segments]

    def segment_paths(self) -> List[str]:
        """Full paths of the written segment files, in order."""
        return [
            os.path.join(self.config.directory, name)
            for name in self.segment_files()
        ]

    def manifest_path(self) -> str:
        return os.path.join(self.config.directory, MANIFEST)

    # ------------------------------------------------------------------
    # Query path

    def events(
        self,
        t0: Optional[float] = None,
        t1: Optional[float] = None,
        node: Optional[str] = None,
        relation: Optional[str] = None,
        kind: Optional[str] = None,
        expand_bursts: bool = True,
        limit: Optional[int] = None,
    ) -> List[Dict[str, Any]]:
        """:meth:`iter_events` as a list: the first ``limit`` matching
        events in time order (all of them when ``limit`` is ``None``)."""
        return list(
            self.iter_events(t0, t1, node, relation, kind, expand_bursts, limit)
        )

    def iter_events(
        self,
        t0: Optional[float] = None,
        t1: Optional[float] = None,
        node: Optional[str] = None,
        relation: Optional[str] = None,
        kind: Optional[str] = None,
        expand_bursts: bool = True,
        limit: Optional[int] = None,
    ) -> Iterator[Dict[str, Any]]:
        """Filtered scan over segments + the unflushed buffer, streamed
        in time order.

        Segments are pruned through their sidecar summaries; matching
        lines are read by offset.  With ``expand_bursts`` (default),
        lossless rule bursts are expanded back into their ``re``
        records before filtering so callers never see representation
        details; counted ``log.b`` bursts pass through as themselves.

        Events come sorted by timestamp with the canonical encoding as
        tie-break — a total, byte-stable order independent of segment
        layout (the writer clusters records for compression).  The scan
        is over the segments and buffered records the store held when
        this was called, whatever is appended or flushed while the
        iterator is consumed.

        Sources — each segment, and the buffer — are opened in order of
        the earliest time each can hold (a summary's ``t0``), and an
        event is yielded once it is strictly older than every source
        not yet opened: only segments whose time ranges overlap are
        decoded at once, and a consumer that stops early leaves the
        rest unread.
        """
        if limit is not None and limit < 0:
            raise ReproError(f"limit must be >= 0: {limit}")
        filters = (t0, t1, node, relation, kind)
        sources = [
            (segment.summary["t0"], partial(segment.scan_rows, *filters))
            for segment in self._segments
            if segment.overlaps_time(t0, t1)
            and segment.has_node(node)
            and segment.has_relation(relation)
        ]
        if self._buffer:
            buffered = list(self._buffer)
            sources.append(
                (
                    min(r.get("tf", r["t"]) for r in buffered),
                    lambda: ([None] * len(buffered), buffered),
                )
            )
        sources.sort(key=itemgetter(0))
        return islice(self._merge(sources, filters, expand_bursts), limit)

    def _merge(self, sources, filters, expand_bursts) -> Iterator[Dict[str, Any]]:
        """The events of ``sources`` in ``(t, canonical line)`` order.

        ``sources`` are ``(bound, rows)`` pairs sorted by ``bound``, no
        event of a source being older than its bound; ``rows()`` opens
        one and returns its stored lines (``None`` for a record that
        has none) and its records.  Only events not yet older than the
        next bound are held.
        """
        pending: List[PyTuple[float, Optional[str], Dict[str, Any]]] = []
        for watermark, rows in sources:
            # Strictly older: an event *at* the watermark may tie with
            # one the next source holds.
            cut = bisect_left([when for when, _, _ in pending], watermark)
            yield from _tie_broken(pending[:cut])
            del pending[:cut]
            pending.extend(
                self._post_filter(zip(*rows()), filters, expand_bursts)
            )
            pending.sort(key=itemgetter(0))
        yield from _tie_broken(pending)

    def _post_filter(
        self, rows, filters, expand_bursts
    ) -> Iterator[PyTuple[float, Optional[str], Dict[str, Any]]]:
        """``(t, stored line or None, record)`` for each logical event
        of ``rows`` — ``(stored line or None, record)`` pairs — that
        passes the filters exactly."""
        t0, t1, node, relation, kind = filters
        for stored, record in rows:
            if expand_bursts and record["k"] == fmt.RULE_BURST:
                entries = [(None, member) for member in expand(record)]
            else:
                entries = ((stored, record),)
            for line, entry in entries:
                when = entry["t"]
                if t0 is not None and when < t0:
                    continue
                if t1 is not None and when > t1:
                    continue
                if node is not None and entry["n"] != node:
                    continue
                if kind is not None and entry["k"] != kind:
                    continue
                if relation is not None and entry.get("rel") != relation:
                    continue
                yield when, line, entry

    # ------------------------------------------------------------------
    # Provenance lookups (backward slicing)

    def _segments_for_tid(self, node: str, tid: int) -> List[SegmentReader]:
        return [s for s in self._segments if s.may_hold_tid(node, tid)]

    def edges_to(self, node: str, tid: int) -> List[Dict[str, Any]]:
        """All ``re`` edges (event + precondition) with effect ``tid``."""
        out: List[Dict[str, Any]] = []
        for segment in self._segments_for_tid(node, tid):
            out.extend(segment.edges_to(node, tid))
        for record in self._buffer:
            if (
                record["k"] == fmt.RULE_EXEC
                and record["n"] == node
                and record["e"] == tid
            ):
                out.append(record)
        return out

    def _ident_rows(self, node: str, tid: int) -> List[Dict[str, Any]]:
        out: List[Dict[str, Any]] = []
        for segment in self._segments_for_tid(node, tid):
            out.extend(segment.ident_rows(node, tid))
        for record in self._buffer:
            if (
                record["k"] == fmt.TUPLE_IDENT
                and record["n"] == node
                and record["i"] == tid
            ):
                out.append(record)
        return out

    def source_of(self, node: str, tid: int) -> Optional[PyTuple]:
        """Latest recorded ``(src, src_tid)`` for one tuple id."""
        rows = self._ident_rows(node, tid)
        if not rows:
            return None
        last = rows[-1]
        return last["s"], last["si"]

    def contents_of(self, node: str, tid: int) -> Optional[Dict[str, Any]]:
        """The persisted payload of one tuple id (first ``tt`` row)."""
        for row in self._ident_rows(node, tid):
            if "rep" in row:
                return row["rep"]
        return None

    def tid_of(self, node: str, payload: Dict[str, Any]) -> Optional[int]:
        """Newest tuple id whose persisted payload equals ``payload``."""
        best: Optional[int] = None
        for record in self.iter_events(
            node=node, kind=fmt.TUPLE_IDENT, expand_bursts=False
        ):
            if record.get("rep") == payload:
                tid = record["i"]
                if best is None or tid > best:
                    best = tid
        return best

    def nodes(self) -> List[str]:
        """All node addresses with any persisted history."""
        seen = set()
        for segment in self._segments:
            seen.update(segment.summary["nodes"])
        seen.update(r["n"] for r in self._buffer)
        return sorted(seen)


def _canonical_line(entry) -> str:
    """What breaks a tie on ``t``.  A stored line *is* the canonical
    encoding of the record it decodes to, so only burst members and
    buffered records are encoded."""
    _, line, record = entry
    return fmt.encode(record) if line is None else line


def _tie_broken(batch) -> Iterator[Dict[str, Any]]:
    """The records of ``batch`` — ``(t, stored line or None, record)``
    entries sorted on ``t`` — each run of equal ``t`` ordered by
    canonical line."""
    for _, run in groupby(batch, key=itemgetter(0)):
        run = list(run)
        if len(run) > 1:
            run.sort(key=_canonical_line)
        for _, _, record in run:
            yield record
