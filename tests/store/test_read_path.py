"""The read path against references that parse everything.

A query parses the sidecar plus the rows it returns, sorts on stored
lines instead of re-encoding, and indexes provenance from sidecar
columns.  Each shortcut rests on an invariant; each is held here
against a reference that takes no shortcut:

- **canonical lines are a fixed point** — ``encode(decode(line)) ==
  line`` for every record constructor and both burst shapes, and the
  bulk decoder equals the per-line one;
- **scans** — ``events(**filters)`` equals reading every data file
  line by line, expanding bursts, filtering, and sorting by
  ``(t, encode(record))``;
- **provenance** — the index built from ``k`` / ``n`` / ``tid`` columns
  equals one built from fully decoded records, on a compressed store
  where one tuple id is an effect both inside a burst and in a plain
  ``re`` row, and a warm slice is the cold one, byte for byte, without
  touching the decoder again.

Mutations tried against this file (each caught): skipping the burst
decode in the index build (``test_index_from_columns...``), indexing
``re.b`` rows by their ``tid`` column entry (same test), dropping the
row memo (``test_warm_slice...``), and ending the last row one byte
late or early (``test_rows_are_the_stored_lines_exactly``).
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
from repro.store.compress import BurstCompressor, expand

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
rule_bursts = st.lists(rule_execs, min_size=1, max_size=5).map(
    BurstCompressor()._rule_burst
)
log_bursts = st.lists(tuple_logs | table_logs, min_size=1, max_size=5).map(
    BurstCompressor()._log_burst
)
records = st.one_of(
    rule_execs, tuple_idents, tuple_logs, table_logs, rule_bursts, log_bursts
)


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


@given(records)
def test_canonical_line_is_a_fixed_point(record):
    line = fmt.encode(record)
    assert line.isascii() and "\n" not in line
    assert fmt.encode(fmt.decode(line)) == line


@given(st.lists(records, max_size=6))
def test_bulk_decode_is_the_per_line_decode(batch):
    lines = [fmt.encode(record) for record in batch]
    decoded = fmt.decode_many(lines)
    assert decoded == [fmt.decode(line) for line in lines]
    assert [fmt.encode(r) for r in decoded] == lines


# ----------------------------------------------------------------------
# A compressed store with history in segments and in the buffer

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


@pytest.fixture(scope="module")
def live_store(tmp_path_factory):
    """Compression on, 7 segments on disk and a tail still buffered."""
    store = ForensicStore(
        StoreConfig(
            directory=str(tmp_path_factory.mktemp("read") / "s"),
            segment_events=128,
        )
    )
    # One rule storm whose burst holds SHARED_TID, and one short run
    # (below the burst threshold) that keeps it in a plain ``re`` row,
    # on the same node in the same segment.
    for i in range(8):
        store._append(
            fmt.rule_exec_record(
                "a:1", "storm", 100 + i, SHARED_TID, -0.2, i / 80 - 0.1, True
            )
        )
    store._append(
        fmt.rule_exec_record("a:1", "lone", 200, SHARED_TID, -0.1, 0.0, False)
    )
    for record in synthetic_history(random.Random(14)):
        store._append(record)
    assert store.segments_written >= 7 and store._buffer
    assert store.bursts_written > 0
    return store


def stored_records(store):
    """Every record of the store, decoded one line at a time from the
    data files, then the buffer — the read path's reference."""
    out = []
    for path in store.segment_paths():
        with open(path) as handle:
            out.extend(json.loads(line) for line in handle)
    return out + list(store._buffer)


def reference_events(store, t0, t1, node, relation, kind, limit, expand_bursts):
    out = []
    for record in stored_records(store):
        for entry in expand(record) if expand_bursts else [record]:
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
            out.append(entry)
    out.sort(key=lambda r: (r["t"], fmt.encode(r)))
    return out[:limit]


instants = st.none() | st.floats(min_value=-1.0, max_value=21.0).map(
    lambda t: round(t, 1)
)
filters = st.fixed_dictionaries(
    {
        "t0": instants,
        "t1": instants,
        "node": st.none() | st.sampled_from(NODES + ["ghost:9"]),
        "relation": st.none() | st.sampled_from(RELATIONS + ["ghost"]),
        "kind": st.none()
        | st.sampled_from(
            [
                fmt.RULE_EXEC, fmt.TUPLE_IDENT, fmt.TUPLE_LOG,
                fmt.TABLE_LOG, fmt.RULE_BURST, fmt.LOG_BURST,
            ]
        ),
        "limit": st.none() | st.integers(min_value=0, max_value=50),
        "expand_bursts": st.booleans(),
    }
)


@settings(max_examples=150, deadline=None)
@given(filters)
def test_events_equal_the_full_decode_reference(live_store, query):
    got = live_store.events(**query)
    expected = reference_events(live_store, **query)
    assert [fmt.encode(r) for r in got] == [fmt.encode(r) for r in expected]


def test_reference_is_not_vacuous(live_store):
    everything = reference_events(
        live_store, None, None, None, None, None, None, True
    )
    assert len(everything) == live_store.events_appended - sum(
        r["cnt"] - 1 for r in stored_records(live_store) if r["k"] == fmt.LOG_BURST
    )
    times = [r["t"] for r in everything]
    assert len(set(times)) < len(times) / 2, "no timestamp ties to break"
    lines = [fmt.encode(r) for r in everything]
    assert len(set(lines)) < len(lines), "no duplicate records"
    assert live_store.events() == everything


def test_rows_are_the_stored_lines_exactly(live_store):
    for reader, path in zip(live_store._segments, live_store.segment_paths()):
        with open(path) as handle:
            stored = handle.read().splitlines()
        rows = range(len(stored))
        lines, decoded = reader.rows_at(rows)
        assert lines == stored
        assert decoded == [json.loads(line) for line in stored]
        last = [len(stored) - 1]
        assert reader.rows_at(last) == ([stored[-1]], [decoded[-1]])
        assert reader.records() == decoded


# ----------------------------------------------------------------------
# Provenance: sidecar-built index == index over decoded records


def reference_indexes(records):
    """The (effect, identity) indexes as the parent built them: decode
    every record of the segment, read its fields."""
    effect, ident = {}, {}
    for i, record in enumerate(records):
        if record["k"] == fmt.RULE_EXEC:
            effect.setdefault(record["n"], {}).setdefault(record["e"], []).append(i)
        elif record["k"] == fmt.RULE_BURST:
            for e in record["e"]:
                effect.setdefault(record["n"], {}).setdefault(e, []).append(i)
        elif record["k"] == fmt.TUPLE_IDENT:
            ident.setdefault(record["n"], {}).setdefault(record["i"], []).append(i)
    return effect, ident


def test_index_from_columns_equals_index_from_decoded_records(live_store):
    directory = live_store.config.directory
    live_store._write_manifest()
    reopened = ForensicStore.open(directory)
    shared_in_both = False
    for reader, path in zip(reopened._segments, reopened.segment_paths()):
        with open(path) as handle:
            decoded = [json.loads(line) for line in handle]
        effect, ident = reference_indexes(decoded)
        assert reader._provenance() == (effect, ident)
        kinds = {decoded[i]["k"] for i in effect.get("a:1", {}).get(SHARED_TID, [])}
        shared_in_both |= kinds == {fmt.RULE_EXEC, fmt.RULE_BURST}
        for node, by_tid in effect.items():
            for tid, rows in by_tid.items():
                assert reader.edges_to(node, tid) == [
                    edge
                    for i in rows
                    for edge in expand(decoded[i])
                    if edge["e"] == tid
                ]
        for node, by_tid in ident.items():
            for tid, rows in by_tid.items():
                assert reader.ident_rows(node, tid) == [decoded[i] for i in rows]
    assert shared_in_both, "no tid is an effect in a burst and in a plain row"


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
    monkeypatch.setattr(fmt, "decode_many", refuse)
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
# Streamed scans: sources by t0, a watermark, ties re-sorted
#
# ``iter_events`` opens segments in order of their summaries' ``t0`` and
# yields an event once it is strictly older than every source not yet
# opened.  Each store below breaks one way of getting that wrong; all
# are held against the line-by-line reference above, for every limit.
#
# Mutations tried against this section (each caught): watermark ``<=``
# instead of ``<`` (boundary-ties), segments in file order instead of
# ``t0`` order (out-of-order-blocks), the buffer opened last whatever
# its oldest record (stale-tail), tie runs left in arrival order (all
# five), and the scan taken when the iterator is first advanced rather
# than when it is made (``test_scan_is_a_snapshot...``).


def fill(directory, history, segment_events, compress=True):
    store = ForensicStore(
        StoreConfig(
            directory=str(directory),
            segment_events=segment_events,
            compress=compress,
        )
    )
    for record in history:
        store._append(record)
    return store


def spans(store):
    return [(s.summary["t0"], s.summary["t1"]) for s in store._segments]


def boundary_ties(directory):
    """Each segment's last events sit exactly on the next one's ``t0``,
    and the later segment's lines sort first: ``a:1`` before ``c:1``,
    then burst members (``{"c":...``) before log entries (``{"k":...``)."""
    log = fmt.tuple_log_record
    history = [
        log("c:1", 0, 0.0, "hop", "x"), log("c:1", 1, 0.5, "hop", "x"),
        log("c:1", 2, 1.0, "hop", "x"), log("b:1", 3, 1.0, "hop", "x"),
        log("a:1", 4, 1.0, "hop", "x"), log("a:1", 5, 1.0, "alarm", "x"),
        log("b:1", 6, 1.5, "hop", "x"), log("b:1", 7, 2.0, "hop", "x"),
    ] + [
        fmt.rule_exec_record("a:1", "r1", i, 10 + i, 2.0, when, True)
        for i, when in enumerate([2.0, 2.0, 2.5, 3.0])
    ]
    store = fill(directory, history, segment_events=4)
    store.close()
    assert spans(store) == [(0.0, 1.0), (1.0, 2.0), (2.0, 3.0)]
    assert store.bursts_written == 1
    return store


def tick_capture(directory):
    """A live batch-kernel capture: segments are cut at tick barriers,
    and a burst opens at its first member's *input* time, so a segment
    starts before the one written ahead of it ends."""
    system = System(
        seed=3,
        store=StoreConfig(directory=str(directory), segment_events=48),
        execution=ExecutionConfig(tick=0.05),
    )
    a = system.add_node("a:1", tracing=True, logging=True)
    b = system.add_node("b:1", tracing=True, logging=True)
    a.install_source(
        'r0 start@N("b:1", E) :- periodic@N(E, 0.02).\n'
        "r1 hop@Dst(X) :- start@N(Dst, X)."
    )
    b.install_source("r2 alarm@N(X) :- hop@N(X).")
    system.run_for(1.0)
    store = system.store
    assert store.tick_mode and store._buffer and store.bursts_written
    ranges = spans(store)
    assert any(
        later[0] < earlier[1] for earlier, later in zip(ranges, ranges[1:])
    ), "no two segment ranges overlap"
    return store


def out_of_order_blocks(directory):
    """Segment-sized stretches of one history appended in shuffled
    order: file order is not time order, a late segment holds the
    oldest events."""
    rng = random.Random(5)
    history = synthetic_history(rng, 230)[:224]
    blocks = [history[i : i + 32] for i in range(0, 224, 32)]
    rng.shuffle(blocks)
    store = fill(directory, [r for block in blocks for r in block], 32)
    starts = [t0 for t0, _ in spans(store)]
    assert len(starts) == 7 and store.bursts_written
    assert starts[0] > min(starts) and starts != sorted(starts)
    # Going by file order would pass a segment's start before opening it.
    assert any(max(starts[:i]) > starts[i] for i in range(2, 7))
    return store


def shuffled(directory):
    """One history appended in random order (uncompressed: a burst of
    records out of clock order would open after its own members)."""
    rng = random.Random(6)
    history = synthetic_history(rng, 200)
    rng.shuffle(history)
    store = fill(directory, history, 32, compress=False)
    assert len({t0 for t0, _ in spans(store)}) > 1
    return store


def stale_tail(directory):
    """A live store whose buffered records are older than segments
    already written."""
    rng = random.Random(7)
    store = fill(directory, synthetic_history(rng, 200), 32)
    room = 31 - len(store._buffer)
    for record in synthetic_history(rng, room)[:room]:  # spans 0..20 again
        store._append(record)
    last_t0, last_t1 = spans(store)[-1]
    oldest = min(r["t"] for r in store._buffer)
    assert store._buffer and oldest < last_t0 < last_t1
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
        "kind": st.none()
        | st.sampled_from(
            [fmt.RULE_EXEC, fmt.TUPLE_IDENT, fmt.TUPLE_LOG, fmt.RULE_BURST]
        ),
        "expand_bursts": st.booleans(),
    }
)


def encoded(records):
    return [fmt.encode(r) for r in records]


def check_every_limit(store, **query):
    expected = encoded(reference_events(store, limit=None, **query))
    assert encoded(store.iter_events(**query)) == expected
    for n in range(len(expected) + 2):
        assert encoded(store.events(limit=n, **query)) == expected[:n], n
    return expected


def test_unfiltered_scan_equals_the_reference_at_every_limit(scanned):
    no_filter = dict.fromkeys(("t0", "t1", "node", "relation", "kind"))
    for expand_bursts in (True, False):
        expected = check_every_limit(
            scanned, expand_bursts=expand_bursts, **no_filter
        )
        assert len(expected) >= 9
    times = [r["t"] for r in scanned.events()]
    assert len(set(times)) < len(times), "no timestamp ties to break"


@settings(max_examples=15, deadline=None)
@given(scan_filters)
def test_filtered_scan_equals_the_reference_at_every_limit(scanned, query):
    check_every_limit(scanned, **query)


def test_scan_is_a_snapshot_of_the_store_at_the_call(tmp_path):
    store = stale_tail(tmp_path / "s")
    expected = encoded(
        reference_events(store, None, None, None, None, None, None, True)
    )
    segments = store.segments_written
    scan = store.iter_events()
    # Nothing has been read yet; what follows must not be seen.
    for record in synthetic_history(random.Random(8), 80):
        store._append(record)
    assert store.segments_written > segments and store._buffer
    head = encoded(next(scan) for _ in range(50))
    for record in synthetic_history(random.Random(9), 40):
        store._append(record)
    store.close()
    assert head + encoded(scan) == expected
    assert len(store.events()) > len(expected)
