"""The read path against references that take no shortcut.

A query parses only the blocks it needs, filters on coded columns,
builds records a column at a time and orders them by ``(t, q)`` without
encoding anything.  Each shortcut rests on an invariant; each is held
here against a reference that decodes every stored row the slow,
obvious way — one line, one row, one field at a time:

- **canonical lines are a fixed point** — ``encode(decode(line)) ==
  line`` for every record constructor, the burst shape and every block
  a cut writes;
- **capture** — what ``events()`` returns is exactly what was appended,
  in ``(t, q)`` order: time, then capture order, wherever segments were
  cut and whichever loop cut them;
- **scans** — ``events(**filters)`` equals reading every segment file
  line by line, rebuilding each row, filtering, and sorting by
  ``(t, q)``, at every ``limit``;
- **provenance** — the index built over a block's coded columns equals
  one built from the rebuilt records, and a warm slice is the cold one,
  byte for byte, without touching the decoder again.

Mutations tried against this file (each caught): handing back ``ev``
as the stored 0/1 (every test that compares records), indexing ``re``
rows by cause (``test_index_from_columns...``), not keeping the blocks
a lookup read (``test_warm_slice...``), and the five of the streamed
scans section below.
"""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.system import System
from repro.runtime.tuples import Tuple
from repro.sim.batch import ExecutionConfig
from repro.store import ForensicStore, StoreConfig, StoreProvider, backward_slice
from repro.store import format as fmt
from repro.store.segment import Segment, code_blocks
from tests.store.feeding import columns_of, feed, feed_all

# ----------------------------------------------------------------------
# Canonical lines

texts = st.text(max_size=12)  # any code point but surrogates: non-ASCII too
numbers = st.one_of(
    st.integers(min_value=-(2**80), max_value=2**80),
    st.floats(allow_nan=False),
    st.sampled_from([-0.0, 0.0, 1e-07, 1e22, 2**53 + 1, float("inf")]),
)
scalars = st.one_of(st.none(), st.booleans(), numbers, texts)
#: Tuple fields as the runtime hands them over: nested tuples become
#: lists, anything JSON cannot hold degrades to ``{"!r": repr(value)}``.
fields = st.recursive(
    st.one_of(
        scalars,
        st.binary(max_size=4),
        st.frozensets(st.integers(0, 3), max_size=2),
        st.complex_numbers(allow_nan=False, allow_infinity=False),
    ),
    lambda inner: st.lists(inner, max_size=3).map(tuple),
    max_leaves=8,
)
addresses = st.sampled_from(["n1:1", "n2:2", "ñ:3"])
times = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
tids = st.integers(min_value=0, max_value=2**40)

payloads = st.builds(
    lambda rel, values: fmt.tuple_payload(Tuple(rel, tuple(values))),
    texts,
    st.lists(fields, max_size=4),
)
rule_execs = st.builds(
    fmt.rule_exec_record, addresses, texts, tids, tids, times, times, st.booleans()
)
tuple_idents = st.builds(
    fmt.tuple_ident_record,
    addresses, tids, fields, fields, fields, times, st.none() | payloads,
)
tuple_logs = st.builds(fmt.tuple_log_record, addresses, tids, times, texts, texts)
table_logs = st.builds(
    fmt.table_log_record, addresses, tids, times, texts, texts, texts
)
captured = st.one_of(rule_execs, tuple_idents, tuple_logs, table_logs)


@given(payloads)
def test_a_payload_thaws_to_a_tuple_that_encodes_back_to_it(payload):
    """``payload_tuple`` never raises on what ``tuple_payload`` wrote —
    a ``{"!r": …}`` field or a nested list must come back hashable —
    and loses nothing the payload held."""
    stored = fmt.decode(fmt.encode(payload))
    tup = fmt.payload_tuple(stored)
    assert hash(tup) == hash(fmt.payload_tuple(stored)) and repr(tup)
    assert fmt.tuple_payload(tup) == stored
    assert fmt.payload_matches(stored, tup)


@given(st.lists(captured, max_size=6))
def test_canonical_line_is_a_fixed_point(batch):
    """For every record, and for every block a cut would write of them."""
    for value in batch + code_blocks(1, columns_of(batch)):
        line = fmt.encode(value)
        assert line.isascii() and "\n" not in line
        assert fmt.encode(fmt.decode(line)) == line


@given(st.lists(captured, max_size=6))
def test_bulk_decode_is_the_per_line_decode(batch):
    """Records built a column at a time from a block are the records
    rebuilt from it one row and one field at a time — and the records
    that went in, whatever the dictionary had to code (``1`` beside
    ``1.0`` beside ``True``, a list, ``-0.0``)."""
    blocks = code_blocks(1, columns_of(batch))
    if not blocks:
        return
    stored = [fmt.decode(fmt.encode(block)) for block in blocks]
    segment = Segment.of_blocks("nowhere", 1, stored)
    bulk = sorted(
        (q, record) for _, q, record in segment.scan(None, None, None, None, None)
    )
    assert bulk == sorted(rebuilt_rows(stored))
    assert [fmt.encode(record) for _, record in bulk] == [
        fmt.encode(record) for record in batch
    ]


def rebuilt_rows(blocks):
    """``(q, record)`` of every row of decoded ``blocks``, one row and
    one field at a time — the reference for everything columnar."""
    carried = {}
    for block in blocks:
        if block["k"] == fmt.PAYLOADS:
            carried = dict(zip(block["at"], block["v"]))
    out = []
    for block in blocks:
        kind = block["k"]
        if kind == fmt.PAYLOADS:
            continue
        for row, q in enumerate(block["q"]):
            record = {"k": kind}
            for name in fmt.COLUMNS[kind]:
                if name not in ("q", "v"):
                    value = block[name][row]
                    record[name] = block["d"][value] if name in fmt.CODED else value
            if kind == fmt.RULE_EXEC:
                record["ev"] = {0: False, 1: True}[record["ev"]]
                record["t"] = record["to"]
            elif kind == fmt.TUPLE_IDENT:
                if row in carried:
                    record["rep"] = {"rel": record["rel"], "v": carried[row]}
                else:
                    assert record.pop("rel") is None
            elif kind == fmt.LOG_BURST:
                record["tl"] = record["t"]
                if record["lk"] == fmt.TUPLE_LOG:
                    assert record.pop("op") is None
            out.append((q, record))
    return out


# ----------------------------------------------------------------------
# A store with history in segments and in the buffer

NODES = ["a:1", "b:1", "c:1"]
RELATIONS = ["alarm", "hop", "periodic"]
SHARED_TID = 7  # an effect inside a burst *and* in a plain ``re`` row


def synthetic_history(rng, count=900):
    """Interleaved records of every kind from three nodes, in clock
    order as a capture appends them, with rule storms (bursts), noise
    storms (counted bursts), timestamp ties and exact duplicates."""
    history = []
    for i in range(count):
        node = rng.choice(NODES)
        when = round(20.0 * i / count, 1)  # coarse: many ties
        rel = rng.choice(RELATIONS)
        roll = rng.random()
        if roll < 0.35:
            rule = rng.choice(["r1", "r2"])
            effect = SHARED_TID if rng.random() < 0.05 else rng.randrange(400)
            history.append(
                fmt.rule_exec_record(
                    node, rule, rng.randrange(400), effect,
                    when - 0.1, when, rng.random() < 0.8,
                )
            )
        elif roll < 0.65:
            tid = rng.randrange(400)
            payload = (
                {"rel": rel, "v": [node, tid, "é"]}
                if rng.random() < 0.6
                else None
            )
            history.append(
                fmt.tuple_ident_record(
                    node, tid, rng.choice(NODES), rng.randrange(400), node,
                    when, payload,
                )
            )
        elif roll < 0.85:
            history.append(fmt.tuple_log_record(node, i, when, rel, f"{rel}(…)"))
        else:
            history.append(
                fmt.table_log_record(node, i, when, rel, "new", f"{rel}(…)")
            )
        if rng.random() < 0.03:
            history.append(dict(history[-1]))
    return history


def filled(directory, history, segment_events, compress=True):
    """A store fed ``history``; ``store.fed`` keeps what it was fed, in
    capture order (so ``q`` is an index into it)."""
    store = ForensicStore(
        StoreConfig(
            directory=str(directory),
            segment_events=segment_events,
            compress=compress,
        )
    )
    store.fed = []
    feed_more(store, history)
    return store


def feed_more(store, history):
    feed_all(store, history)
    store.fed += history


@pytest.fixture(scope="module")
def live_store(tmp_path_factory):
    """Noise folding on, 7 segments on disk and a tail still buffered."""
    # One rule storm into SHARED_TID and one lone precondition edge into
    # it, on the same node in the same segment, ahead of the history.
    storm = [
        fmt.rule_exec_record(
            "a:1", "storm", 100 + i, SHARED_TID, -0.2, i / 80 - 0.1, True
        )
        for i in range(8)
    ]
    lone = fmt.rule_exec_record("a:1", "lone", 200, SHARED_TID, -0.1, 0.0, False)
    store = filled(
        tmp_path_factory.mktemp("read") / "s",
        storm + [lone] + synthetic_history(random.Random(14)),
        segment_events=128,
    )
    assert store.segments_written >= 7 and store.buffered
    assert store.bursts_written > 0
    return store


def stored_rows(store):
    """``(q, record)`` of every event the store holds: each segment
    file read line by line and rebuilt row by row, then the buffered
    tail as it was fed — the read path's reference."""
    out = []
    for path in store.segment_paths():
        with open(path) as handle:
            out += rebuilt_rows([json.loads(line) for line in handle])
    first = len(store.fed) - store.buffered
    return out + list(enumerate(store.fed[first:], first))


def reference_events(store, t0, t1, node, relation, kind, limit):
    out = []
    for q, entry in stored_rows(store):
        if t0 is not None and entry["t"] < t0:
            continue
        if t1 is not None and entry["t"] > t1:
            continue
        if node is not None and entry["n"] != node:
            continue
        if kind is not None and entry["k"] != kind:
            continue
        if relation is not None and entry.get("rel") != relation:
            continue
        out.append((entry["t"], q, entry))
    out.sort(key=lambda e: e[:2])
    return [entry for _, _, entry in out][:limit]


instants = st.none() | st.floats(min_value=-1.0, max_value=21.0).map(
    lambda t: round(t, 1)
)
KINDS = [
    fmt.RULE_EXEC, fmt.TUPLE_IDENT, fmt.TUPLE_LOG, fmt.TABLE_LOG, fmt.LOG_BURST,
]
filters = st.fixed_dictionaries(
    {
        "t0": instants,
        "t1": instants,
        "node": st.none() | st.sampled_from(NODES + ["ghost:9"]),
        "relation": st.none() | st.sampled_from(RELATIONS + ["ghost"]),
        "kind": st.none() | st.sampled_from(KINDS),
        "limit": st.none() | st.integers(min_value=0, max_value=50),
    }
)


def encoded(records):
    return [fmt.encode(r) for r in records]


@settings(max_examples=150, deadline=None)
@given(filters)
def test_events_equal_the_full_decode_reference(live_store, query):
    got = live_store.events(**query)
    assert encoded(got) == encoded(reference_events(live_store, **query))


def test_reference_is_not_vacuous(live_store):
    rows = stored_rows(live_store)
    everything = reference_events(live_store, None, None, None, None, None, None)
    folded = sum(r["cnt"] - 1 for _, r in rows if r["k"] == fmt.LOG_BURST)
    assert folded and len(everything) == live_store.events_appended - folded
    # Nothing but the folded noise differs from what was fed, and each
    # stored row sits at the capture position it was fed at.
    assert all(
        record == live_store.fed[q]
        for q, record in rows
        if record["k"] != fmt.LOG_BURST
    )
    times = [r["t"] for r in everything]
    assert len(set(times)) < len(times) / 2, "no timestamp ties to break"
    lines = encoded(everything)
    assert len(set(lines)) < len(lines), "no duplicate records"
    assert live_store.events() == everything


def test_rows_are_the_stored_lines_exactly(live_store):
    for segment, path in zip(live_store._segments, live_store.segment_paths()):
        with open(path, "rb") as handle:
            stored = handle.read().splitlines(keepends=True)
        entries = segment.summary["blocks"]
        assert [e["off"] for e in entries] == [
            sum(map(len, stored[:i])) for i in range(len(stored))
        ]
        assert segment.summary["bytes"] == sum(map(len, stored))
        blocks = [json.loads(line) for line in stored]
        assert [(e["k"], e["rows"]) for e in entries] == [
            (b["k"], len(b["at" if b["k"] == fmt.PAYLOADS else "q"]))
            for b in blocks
        ]
        scanned = sorted(
            (q, record)
            for _, q, record in segment.scan(None, None, None, None, None)
        )
        assert scanned == sorted(rebuilt_rows(blocks))
        assert len(scanned) == segment.summary["records"]


# ----------------------------------------------------------------------
# Provenance: lookups in the coded columns == an index over rebuilt records


def reference_index(rows, kind, key):
    """node -> tid -> row positions within the block of ``kind``."""
    index, row = {}, 0
    for _, record in rows:
        if record["k"] == kind:
            index.setdefault(record["n"], {}).setdefault(record[key], []).append(row)
            row += 1
    return index


def test_index_from_columns_equals_index_from_decoded_records(live_store):
    directory = live_store.config.directory
    live_store._write_manifest()
    reopened = ForensicStore.open(directory)
    shared_twice = False
    for segment, path in zip(reopened._segments, reopened.segment_paths()):
        with open(path) as handle:
            rows = rebuilt_rows([json.loads(line) for line in handle])
        by_kind = {
            kind: [record for _, record in rows if record["k"] == kind]
            for kind in (fmt.RULE_EXEC, fmt.TUPLE_IDENT)
        }
        effect = reference_index(rows, fmt.RULE_EXEC, "e")
        ident = reference_index(rows, fmt.TUPLE_IDENT, "i")
        blocks = segment.fetch([fmt.RULE_EXEC, fmt.TUPLE_IDENT])
        for kind, index in ((fmt.RULE_EXEC, effect), (fmt.TUPLE_IDENT, ident)):
            assert sum(len(v) for by in index.values() for v in by.values()) == (
                blocks[kind].rows
            )
            for node, by_tid in index.items():
                for tid, at in by_tid.items():
                    assert blocks[kind].rows_of(node, tid) == at
        for node, by_tid in effect.items():
            for tid, at in by_tid.items():
                assert segment.edges_to(node, tid) == [
                    by_kind[fmt.RULE_EXEC][i] for i in at
                ]
        for node, by_tid in ident.items():
            for tid, at in by_tid.items():
                held = [by_kind[fmt.TUPLE_IDENT][i] for i in at]
                assert segment.source_of(node, tid) == (
                    held[-1]["s"], held[-1]["si"],
                )
                assert segment.contents_of(node, tid) == next(
                    (r["rep"] for r in held if "rep" in r), None
                )
        rules = {
            by_kind[fmt.RULE_EXEC][i]["r"]
            for i in effect.get("a:1", {}).get(SHARED_TID, [])
        }
        shared_twice |= {"storm", "lone"} <= rules
    assert shared_twice, "no tid is the effect of a storm and of a lone edge"


def test_warm_slice_is_the_cold_slice_and_decodes_nothing(
    live_store, monkeypatch
):
    live_store._write_manifest()
    reopened = ForensicStore.open(live_store.config.directory)
    provider = StoreProvider(reopened)
    cold = backward_slice(provider, "a:1", SHARED_TID)
    assert len(cold.links) > 8 and cold.inputs

    def refuse(*args):
        raise AssertionError("a warm slice went back to the decoder")

    monkeypatch.setattr(fmt, "decode", refuse)
    warm = backward_slice(provider, "a:1", SHARED_TID)
    assert warm.to_json() == cold.to_json()
    monkeypatch.undo()
    again = backward_slice(
        StoreProvider(ForensicStore.open(live_store.config.directory)),
        "a:1",
        SHARED_TID,
    )
    assert again.to_json() == cold.to_json()


# ----------------------------------------------------------------------
# Streamed scans: sources by t0, a watermark, ties by capture order
#
# ``iter_events`` opens segments in order of their summaries' ``t0`` and
# yields an event once it is strictly older than every source not yet
# opened.  Each store below breaks one way of getting that wrong; all
# are held against the row-by-row reference above, for every limit.
#
# Mutations tried against this section (each caught): watermark ``<=``
# instead of ``<`` (boundary-ties: a later-opened source can hold the
# *earlier* captured half of a tie), segments in file order instead of
# ``t0`` order (out-of-order-blocks, shuffled, stale-tail), the buffer
# opened last whatever its oldest event (shuffled, stale-tail), events
# sorted on ``t`` alone (all but shuffled), and the scan taken when the
# iterator is first advanced rather than when it is made
# (``test_scan_is_a_snapshot...``).


def spans(store):
    return [(s.t0, s.t1) for s in store._segments]


def boundary_ties(directory):
    """A segment's last events sit exactly on the ``t0`` of the one
    opened after it — which was *captured* first, so its half of the
    tie comes first — and the tied events sit in different blocks."""
    log = fmt.tuple_log_record
    history = [
        log("c:1", 2, 1.0, "hop", "x"), log("b:1", 3, 1.0, "hop", "x"),
        fmt.rule_exec_record("a:1", "r0", 1, 2, 1.0, 1.0, True),
        log("a:1", 4, 2.0, "hop", "x"),
        log("c:1", 0, 0.0, "hop", "x"), log("c:1", 1, 0.5, "hop", "x"),
        log("a:1", 5, 1.0, "alarm", "x"), log("b:1", 6, 1.0, "hop", "x"),
    ] + [
        fmt.rule_exec_record("a:1", "r1", i, 10 + i, 2.0, when, True)
        for i, when in enumerate([2.0, 2.0, 2.5, 3.0])
    ]
    store = filled(directory, history, segment_events=4)
    store.close()
    assert spans(store) == [(1.0, 2.0), (0.0, 1.0), (2.0, 3.0)]
    return store


def tick_capture(directory):
    """A live batch-kernel capture: segments are cut at tick barriers,
    each from whatever the tick left buffered."""
    store, fed = captured_run(directory, 48, ExecutionConfig(tick=0.05))
    assert store.tick_mode and store.buffered and store.segments_written > 3
    store.fed = fed
    return store


def out_of_order_blocks(directory):
    """Segment-sized stretches of one history appended in shuffled
    order: file order is not time order, a late segment holds the
    oldest events."""
    rng = random.Random(5)
    history = synthetic_history(rng, 230)[:224]
    blocks = [history[i : i + 32] for i in range(0, 224, 32)]
    rng.shuffle(blocks)
    store = filled(directory, [r for block in blocks for r in block], 32)
    starts = [t0 for t0, _ in spans(store)]
    assert len(starts) == 7
    assert starts[0] > min(starts) and starts != sorted(starts)
    # Going by file order would pass a segment's start before opening it.
    assert any(max(starts[:i]) > starts[i] for i in range(2, 7))
    return store


def shuffled(directory):
    """One history appended in random order, nothing folded: what reads
    back is exactly what was fed."""
    rng = random.Random(6)
    history = synthetic_history(rng, 200)
    rng.shuffle(history)
    store = filled(directory, history, 32, compress=False)
    assert len({t0 for t0, _ in spans(store)}) > 1
    assert sorted(stored_rows(store), key=lambda e: e[0]) == list(
        enumerate(store.fed)
    )
    return store


def stale_tail(directory):
    """A live store whose buffered events are older than segments
    already written."""
    rng = random.Random(7)
    store = filled(directory, synthetic_history(rng, 200), 32)
    room = 31 - store.buffered
    feed_more(store, synthetic_history(rng, room)[:room])  # spans 0..20 again
    last_t0, last_t1 = spans(store)[-1]
    oldest = min(r["t"] for r in store.fed[-store.buffered :])
    assert store.buffered and oldest < last_t0 < last_t1
    assert oldest < spans(store)[1][0], "the tail belongs before segment 2"
    return store


SCANNED = {
    "boundary-ties": boundary_ties,
    "tick-capture": tick_capture,
    "out-of-order-blocks": out_of_order_blocks,
    "shuffled": shuffled,
    "stale-tail": stale_tail,
}


@pytest.fixture(scope="module", params=sorted(SCANNED))
def scanned(request, tmp_path_factory):
    return SCANNED[request.param](tmp_path_factory.mktemp("scan") / "s")


scan_filters = st.fixed_dictionaries(
    {
        "t0": instants,
        "t1": instants,
        "node": st.none() | st.sampled_from(NODES),
        "relation": st.none() | st.sampled_from(RELATIONS + ["start"]),
        "kind": st.none() | st.sampled_from(KINDS),
    }
)


def check_every_limit(store, **query):
    expected = encoded(reference_events(store, limit=None, **query))
    assert encoded(store.iter_events(**query)) == expected
    for n in range(len(expected) + 2):
        assert encoded(store.events(limit=n, **query)) == expected[:n], n
    return expected


def test_unfiltered_scan_equals_the_reference_at_every_limit(scanned):
    no_filter = dict.fromkeys(("t0", "t1", "node", "relation", "kind"))
    assert len(check_every_limit(scanned, **no_filter)) >= 9
    times = [r["t"] for r in scanned.events()]
    assert len(set(times)) < len(times), "no timestamp ties to break"


@settings(max_examples=15, deadline=None)
@given(scan_filters)
def test_filtered_scan_equals_the_reference_at_every_limit(scanned, query):
    check_every_limit(scanned, **query)


def test_scan_is_a_snapshot_of_the_store_at_the_call(tmp_path):
    store = stale_tail(tmp_path / "s")
    expected = encoded(
        reference_events(store, None, None, None, None, None, None)
    )
    segments = store.segments_written
    scan = store.iter_events()
    # Nothing has been read yet; what follows must not be seen.
    feed_more(store, synthetic_history(random.Random(8), 80))
    assert store.segments_written > segments and store.buffered
    head = encoded(next(scan) for _ in range(50))
    feed_more(store, synthetic_history(random.Random(9), 40))
    store.close()
    assert head + encoded(scan) == expected
    assert len(store.events()) > len(expected)


# ----------------------------------------------------------------------
# The capture oracle: what reads back is what the taps were handed


def captured_run(directory, segment_events, execution):
    """A two-node chain driven by a 50 Hz timer for one sim-second,
    captured into a live store — and, beside it, by this function's own
    taps on the same hooks, as the list of logical records the store
    was handed, in order."""
    system = System(
        seed=3,
        store=StoreConfig(directory=str(directory), segment_events=segment_events),
        execution=execution,
    )
    fed, payloaded = [], set()
    nodes = [
        system.add_node(address, tracing=True, logging=True)
        for address in ("a:1", "b:1")
    ]
    for node in nodes:
        address = str(node.address)

        def edge(row, outcome, n=address):
            if outcome.value != "refreshed":
                fed.append(fmt.rule_exec_record(n, *row.values[1:]))

        def identity(tid, src, src_tid, loc, tup, n=address):
            payload = None
            if tup is not None and (n, tid) not in payloaded:
                payloaded.add((n, tid))
                payload = fmt.tuple_payload(tup)
            fed.append(
                fmt.tuple_ident_record(n, tid, src, src_tid, loc, system.now, payload)
            )

        node.store.get("ruleExec").on_insert.append(edge)
        node.registry.on_register.append(identity)
        node.store.get("tupleLog").on_insert.append(
            lambda row, outcome, n=address: fed.append(
                fmt.tuple_log_record(n, *row.values[1:])
            )
        )
        node.store.get("tableLog").on_insert.append(
            lambda row, outcome, n=address: fed.append(
                fmt.table_log_record(n, *row.values[1:])
            )
        )
    a, b = nodes
    a.install_source(
        'r0 start@N("b:1", E) :- periodic@N(E, 0.02).\n'
        "r1 hop@Dst(X) :- start@N(Dst, X)."
    )
    b.install_source(
        "materialize(seen, 1, 20, keys(2)).\n"
        "r2 alarm@N(X) :- hop@N(X).\n"
        "r3 seen@N(X) :- hop@N(X)."
    )
    system.run_for(1.0)
    return system.store, fed


@pytest.mark.parametrize("loop", ["inline", "tick"])
@pytest.mark.parametrize("segment_events", [64, 4096, 10**9])
def test_events_are_the_captured_records_in_capture_order(
    tmp_path, segment_events, loop
):
    execution = ExecutionConfig(tick=0.05) if loop == "tick" else None
    store, fed = captured_run(tmp_path / "s", segment_events, execution)
    assert len(fed) == store.events_appended > 300
    assert {r["k"] for r in fed} == set(KINDS) - {fmt.LOG_BURST}
    assert (store.segments_written > 3) == (segment_events == 64)
    oracle = [fed[q] for _, q in sorted((r["t"], q) for q, r in enumerate(fed))]
    live = store.events()
    assert encoded(live) == encoded(oracle)
    store.close()
    reopened = ForensicStore.open(store.config.directory)
    assert encoded(reopened.events()) == encoded(oracle)
    queries = [
        {"node": "b:1"}, {"relation": "alarm"}, {"kind": fmt.TABLE_LOG},
        {"t0": 0.3, "t1": 0.7}, {"node": "a:1", "kind": fmt.TUPLE_IDENT, "t1": 0.5},
        {"relation": "seen", "kind": fmt.TABLE_LOG, "t0": 0.5},
    ]
    for query in queries:
        expected = [
            r for r in oracle
            if query.get("node") in (None, r["n"])
            and query.get("kind") in (None, r["k"])
            and ("relation" not in query or r.get("rel") == query["relation"])
            and query.get("t0", 0.0) <= r["t"] <= query.get("t1", 9.9)
        ]
        assert expected, query
        assert encoded(reopened.events(**query)) == encoded(expected), query
        for limit in (0, 1, 7, len(expected), len(expected) + 1):
            assert encoded(reopened.events(limit=limit, **query)) == encoded(
                expected[:limit]
            ), (query, limit)
