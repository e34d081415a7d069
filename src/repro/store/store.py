"""The durable forensic event store.

:class:`ForensicStore` taps the introspection plane of a running
:class:`~repro.core.system.System` — the tracer's ``ruleExec`` table,
the tuple registry's identity writes, the event logger's ``tupleLog`` /
``tableLog`` — and spills everything to append-only columnar segment
files (:mod:`repro.store.segment`), folding log noise on the way down
(:mod:`repro.store.compress`).  The in-memory introspection rings stay
exactly as they were: bounded, fast, queryable from OverLog.  The store
is the history that survives when they rotate.

Write path: each capture callback appends the event's scalars, behind
the store-wide capture sequence number ``q``, to the buffer of its kind
— no per-event object.  At each tick barrier
(:meth:`on_tick_barrier`, a simulator ``on_tick`` hook) where
``segment_events`` or more are buffered, the store cuts a segment from
everything it holds: one encode per block, one file write, then the
manifest.  Segments so align to tick boundaries; a store fed by hand
cuts when its feeder calls the hook.  ``close()`` flushes the remainder
and (re)writes ``manifest.json``.

Read path: :meth:`iter_events` / :meth:`events` for filtered scans
(time / relation / node / kind), streamed in ``(t, q)`` order — time,
then capture order within an instant — and the provenance lookups
(:meth:`edges_to`, :meth:`source_of`, :meth:`contents_of`,
:meth:`tid_of`) that back :mod:`repro.store.slicing`.  Reads see
buffered-but-unflushed events too, so a live query never misses the
tail.
"""

from __future__ import annotations

import os
from bisect import bisect_left
from dataclasses import dataclass
from functools import partial
from itertools import islice
from operator import itemgetter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple as PyTuple

from repro import codec
from repro.errors import ReproError, StoreCorruptionError
from repro.store import format as fmt
from repro.store.compress import DEFAULT_NOISE_RELATIONS, fold_noise
from repro.store.segment import Columns, Segment, code_blocks, write_segment

MANIFEST = "manifest.json"
#: The store format this build writes, and the only one it reads.
VERSION = 3

#: The introspection rings the store taps (and watches for rotation).
RINGS = ("ruleExec", "tupleLog", "tableLog", "tupleTable")

#: The kinds a capture callback appends (``log.b`` rows are made at a cut).
_CAPTURED = (fmt.RULE_EXEC, fmt.TUPLE_IDENT, fmt.TUPLE_LOG, fmt.TABLE_LOG)

_time_then_capture = itemgetter(0, 1)


@dataclass
class StoreConfig:
    """Knobs of one forensic store."""

    #: Directory segments are written into (created on first flush).
    directory: str
    #: Events per segment: a tick barrier cuts once this many are
    #: buffered, so memory stays O(this plus one tick's capture).
    segment_events: int = 4096
    #: Noise folding on/off.
    compress: bool = True
    #: Relations whose log entries are *counted* (lossy) when bursty.
    noise_relations: PyTuple = DEFAULT_NOISE_RELATIONS


class ForensicStore:
    """One durable event store serving a whole system (see module doc)."""

    def __init__(
        self,
        config: StoreConfig,
        clock: Optional[Callable[[], float]] = None,
        rotations: Optional[Callable[[], Dict[PyTuple, int]]] = None,
    ) -> None:
        self.config = config
        self._clock = clock if clock is not None else (lambda: 0.0)
        # Where :attr:`ring_rotations` is read: the system's ring
        # eviction counters, or an opened store's manifest.
        self._rotations = rotations if rotations is not None else dict
        #: The capture buffer: per kind, one flat list interleaving the
        #: kind's columns (row ``i`` of column ``j`` of ``w`` sits at
        #: ``i * w + j``), so an event costs one ``extend`` and a
        #: column is one strided slice.
        self._flat: Dict[str, list] = {kind: [] for kind in _CAPTURED}
        self._segments: List[Segment] = []
        self._next_seg = 1
        self._dir_ready = False
        #: ``events_appended`` at the last cut.
        self._cut_q = 0
        #: The buffer as a segment, with the ``events_appended`` it was
        #: built at (see :meth:`_tail`).
        self._tail_built: Optional[PyTuple[int, Segment]] = None
        # Counters (exported as store_* metrics).  ``events_appended``
        # is also the next capture sequence number.
        self.events_appended = 0
        self.records_written = 0
        self.segments_written = 0
        self.bytes_written = 0
        self.bursts_written = 0
        self.flushes = 0
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
                manifest = codec.loads(handle.read())
            version = manifest["version"]
            if version == VERSION:
                store._segments = [
                    Segment(directory, summary)
                    for summary in manifest["segments"]
                ]
                store._next_seg = manifest["next_segment"]
                totals = manifest["totals"]
                store.events_appended = store._cut_q = totals["events"]
                store.records_written = totals["records"]
                store.segments_written = len(store._segments)
                store.bytes_written = totals["bytes"]
                store.bursts_written = totals["bursts"]
                store._rotations = {
                    (entry["node"], entry["ring"]): entry["count"]
                    for entry in manifest["ring_rotations"]
                }.copy
        except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
            raise StoreCorruptionError(
                path, f"unreadable manifest: {exc!r}"
            ) from exc
        if version != VERSION:
            raise ReproError(
                f"store format version {version} is not supported (this "
                f"build reads and writes version {VERSION}): {path}"
            )
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
            node.store.get("ruleExec").on_append.append(
                partial(self._on_rule_exec, address)
            )
            tracer.registry.on_register.append(
                partial(self._on_register, address)
            )
        if logger is not None:
            node.store.get("tupleLog").on_append.append(
                partial(self._on_tuple_log, address)
            )
            node.store.get("tableLog").on_append.append(
                partial(self._on_table_log, address)
            )

    @property
    def ring_rotations(self) -> Dict[PyTuple, int]:
        """Ring evictions keyed ``(node, ring)``: the system-level counter
        (``System.ring_rotations``), kept where store readers see it
        offline — read from the manifest once the store is opened."""
        return self._rotations()

    # ------------------------------------------------------------------
    # Capture: one buffer ``extend`` per event, in ``COLUMNS`` order.
    # The four callbacks repeat the sequence-number lines rather than
    # share them: a helper would be one more call for every event.
    # Each gets a ring row's values and the values it replaced.

    def _on_rule_exec(self, node: str, values, replaced) -> None:
        if self.closed:
            return
        _, rule, cause, effect, in_t, out_t, is_event = values
        q = self.events_appended
        self.events_appended = q + 1
        self._flat[fmt.RULE_EXEC].extend(
            (q, node, rule, cause, effect, in_t, out_t, bool(is_event))
        )

    def _on_register(self, node: str, tid, src, src_tid, loc, tup) -> None:
        # ``tup`` comes only with the write that mints ``tid``: each
        # payload is persisted once, and nothing is kept to know that.
        if self.closed:
            return
        rel = values = None
        if tup is not None:
            rel, values = tup.name, codec.encode_values(tup.values)
        q = self.events_appended
        self.events_appended = q + 1
        self._flat[fmt.TUPLE_IDENT].extend(
            (q, node, tid, src, src_tid, loc, self._clock(), rel, values)
        )

    def _on_tuple_log(self, node: str, values, replaced=None) -> None:
        if self.closed:
            return
        _, seq, when, rel, text = values
        q = self.events_appended
        self.events_appended = q + 1
        self._flat[fmt.TUPLE_LOG].extend((q, node, seq, when, rel, text))

    def _on_table_log(self, node: str, values, replaced=None) -> None:
        if self.closed:
            return
        _, seq, when, rel, op, text = values
        q = self.events_appended
        self.events_appended = q + 1
        self._flat[fmt.TABLE_LOG].extend((q, node, seq, when, rel, op, text))

    # ------------------------------------------------------------------
    # Write path

    @property
    def buffered(self) -> int:
        """Events captured but not yet in a segment."""
        return self.events_appended - self._cut_q

    def _columns(self) -> Columns:
        """The buffer as columns: a strided slice of each kind's list."""
        columns: Columns = {}
        for kind, flat in self._flat.items():
            if flat:
                names = fmt.COLUMNS[kind]
                columns[kind] = {
                    name: flat[at :: len(names)] for at, name in enumerate(names)
                }
        return columns

    def on_tick_barrier(self, when: float) -> None:
        """Tick-barrier hook: cut a full buffer now."""
        if self.buffered >= self.config.segment_events:
            self.flush_segment()

    def flush_segment(self) -> None:
        """Cut one segment from everything buffered (no-op when empty)."""
        columns = self._columns()
        if not columns:
            return
        for flat in self._flat.values():
            del flat[:]
        self._tail_built = None
        self._cut_q = self.events_appended
        if self.config.compress:
            bursts: List[tuple] = []
            for kind in (fmt.TUPLE_LOG, fmt.TABLE_LOG):
                if kind in columns:
                    columns[kind], folded = fold_noise(
                        kind, columns[kind], self.config.noise_relations
                    )
                    bursts += folded
            if bursts:
                bursts.sort()
                columns[fmt.LOG_BURST] = dict(
                    zip(fmt.COLUMNS[fmt.LOG_BURST], map(list, zip(*bursts)))
                )
                self.bursts_written += len(bursts)
        if not self._dir_ready:
            os.makedirs(self.config.directory, exist_ok=True)
            self._dir_ready = True
        summary = write_segment(
            self.config.directory,
            self._next_seg,
            code_blocks(self._next_seg, columns),
        )
        self._segments.append(Segment(self.config.directory, summary))
        self._next_seg += 1
        self.segments_written += 1
        self.records_written += summary["records"]
        self.bytes_written += summary["bytes"]
        self.flushes += 1
        self._write_manifest()

    def close(self) -> None:
        """Flush everything and finalize the manifest."""
        if self.buffered:
            self.flush_segment()  # the cut writes the manifest
        else:
            self._write_manifest()
        self.closed = True

    def _write_manifest(self) -> None:
        """Replace the manifest in one step: a writer that dies half
        way leaves the previous one readable."""
        if not self._dir_ready:
            os.makedirs(self.config.directory, exist_ok=True)
            self._dir_ready = True
        manifest = {
            "version": VERSION,
            "segments": [s.summary for s in self._segments],
            "next_segment": self._next_seg,
            "totals": {
                "events": self._cut_q,
                "records": self.records_written,
                "bytes": self.bytes_written,
                "bursts": self.bursts_written,
            },
            "ring_rotations": [
                {"node": node, "ring": ring, "count": count}
                for (node, ring), count in sorted(self.ring_rotations.items())
            ],
        }
        path = self.manifest_path()
        with open(path + ".tmp", "w") as handle:
            handle.write(codec.dumps(manifest))
        os.replace(path + ".tmp", path)

    # ------------------------------------------------------------------
    # Introspection

    @property
    def compression_ratio(self) -> float:
        """Logical events per stored row in written segments."""
        if self.records_written == 0:
            return 1.0
        return self._cut_q / self.records_written

    def segment_files(self) -> List[str]:
        """Written segment file names, in order."""
        return [s.summary["file"] for s in self._segments]

    def segment_paths(self) -> List[str]:
        """Full paths of the written segment files, in order."""
        return [s.path for s in self._segments]

    def manifest_path(self) -> str:
        return os.path.join(self.config.directory, MANIFEST)

    # ------------------------------------------------------------------
    # Query path

    def _tail(self) -> List[Segment]:
        """The unflushed buffer as (at most) one in-memory segment —
        the blocks a cut would write, without the noise folding —
        rebuilt only after something was appended."""
        if not self.buffered:
            return []
        built = self._tail_built
        if built is None or built[0] != self.events_appended:
            segment = Segment.of_blocks(
                self.config.directory,
                self._next_seg,
                code_blocks(self._next_seg, self._columns()),
            )
            built = self._tail_built = (self.events_appended, segment)
        return [built[1]]

    def events(
        self,
        t0: Optional[float] = None,
        t1: Optional[float] = None,
        node: Optional[str] = None,
        relation: Optional[str] = None,
        kind: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> List[Dict[str, Any]]:
        """:meth:`iter_events` as a list: the first ``limit`` matching
        events in time order (all of them when ``limit`` is ``None``)."""
        return list(self.iter_events(t0, t1, node, relation, kind, limit))

    def iter_events(
        self,
        t0: Optional[float] = None,
        t1: Optional[float] = None,
        node: Optional[str] = None,
        relation: Optional[str] = None,
        kind: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> Iterator[Dict[str, Any]]:
        """Filtered scan over segments + the unflushed buffer, streamed
        in time order.

        Segments are pruned through their summaries; in the ones left,
        only the blocks of the kinds asked for are parsed, the filters
        run on the coded columns and only the rows that pass become
        records.  Counted ``log.b`` bursts are events like any other,
        at their last member's time.

        Events come sorted by ``(t, q)``: timestamp, then capture order
        — a total order that needs no encoding and does not depend on
        where segments were cut.  The scan is over the segments and
        buffered events the store held when this was called, whatever
        is appended or flushed while the iterator is consumed.

        Sources — each segment, and the buffer — are opened in order of
        the earliest time each can hold (a summary's ``t0``), and an
        event is yielded once it is strictly older than every source
        not yet opened: only segments whose time ranges overlap are
        parsed at once, and a consumer that stops early leaves the
        rest unread.
        """
        if limit is not None and limit < 0:
            raise ReproError(f"limit must be >= 0: {limit}")
        sources = [
            segment
            for segment in self._segments + self._tail()
            if segment.overlaps_time(t0, t1)
            and segment.has_node(node)
            and segment.has_relation(relation)
        ]
        sources.sort(key=lambda segment: segment.t0)
        filters = (t0, t1, node, relation, kind)
        return islice(self._merge(sources, filters), limit)

    @staticmethod
    def _merge(sources: List[Segment], filters) -> Iterator[Dict[str, Any]]:
        """The events of ``sources`` — sorted by ``t0``, the time no
        event of a segment is older than — in ``(t, q)`` order.  Only
        events not yet older than the next ``t0`` are held."""
        pending: List[PyTuple[float, int, Dict[str, Any]]] = []
        for segment in sources:
            # Strictly older: an event *at* the watermark may tie with
            # one the next source holds.
            cut = bisect_left(pending, segment.t0, key=itemgetter(0))
            yield from map(itemgetter(2), pending[:cut])
            del pending[:cut]
            pending.extend(segment.scan(*filters))
            pending.sort(key=_time_then_capture)
        yield from map(itemgetter(2), pending)

    # ------------------------------------------------------------------
    # Provenance lookups (backward slicing)

    def _holders(self, node: str, tid: int) -> List[Segment]:
        """The segments (and tail) that may hold ``tid``, oldest first."""
        return [
            segment
            for segment in self._segments + self._tail()
            if segment.may_hold_tid(node, tid)
        ]

    def edges_to(self, node: str, tid: int) -> List[Dict[str, Any]]:
        """All ``re`` edges (event + precondition) with effect ``tid``."""
        out: List[Dict[str, Any]] = []
        for segment in self._holders(node, tid):
            out.extend(segment.edges_to(node, tid))
        return out

    def source_of(self, node: str, tid: int) -> Optional[PyTuple]:
        """Latest recorded ``(src, src_tid)`` for one tuple id."""
        for segment in reversed(self._holders(node, tid)):
            found = segment.source_of(node, tid)
            if found is not None:
                return found
        return None

    def contents_of(self, node: str, tid: int) -> Optional[Dict[str, Any]]:
        """The persisted payload of one tuple id (first ``tt`` row)."""
        for segment in self._holders(node, tid):
            found = segment.contents_of(node, tid)
            if found is not None:
                return found
        return None

    def tid_of(self, node: str, payload: Dict[str, Any]) -> Optional[int]:
        """Newest tuple id whose persisted payload equals ``payload``."""
        relation = payload.get("rel") if isinstance(payload, dict) else None
        if not isinstance(relation, str):
            return None  # no tuple has such a name
        return max(
            (
                record["i"]
                for record in self.iter_events(
                    node=node, relation=relation, kind=fmt.TUPLE_IDENT
                )
                if record.get("rep") == payload
            ),
            default=None,
        )

    def nodes(self) -> List[str]:
        """All node addresses with any persisted history."""
        seen: set = set()
        for segment in self._segments + self._tail():
            seen.update(segment.summary["nodes"])
        return sorted(seen)
