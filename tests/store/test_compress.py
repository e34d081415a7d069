"""Firing storms on disk: ``re`` runs as lossless columns, log noise
folded into counted ``log.b`` rows."""

from __future__ import annotations

import pytest

from repro.store import ForensicStore, StoreConfig
from repro.store import format as fmt
from repro.store.compress import fold_noise
from tests.store.feeding import feed_all


def rule_run(node, rule, count, base_tid=10, ev=True, t0=1.0):
    return [
        fmt.rule_exec_record(
            node,
            rule,
            base_tid + i,
            base_tid + i + 1,
            t0 + i,
            t0 + i + 0.5,
            ev,
        )
        for i in range(count)
    ]


def noise_run(node, count, t0=1.0, rel="periodic"):
    return [
        fmt.tuple_log_record(node, i + 1, t0 + i, rel, f"p({i})")
        for i in range(count)
    ]


def closed_store(directory, records, **config):
    store = ForensicStore(StoreConfig(directory=str(directory), **config))
    feed_all(store, records)
    store.close()
    return store


def encoded(records):
    return [fmt.encode(r) for r in records]


def log_columns(records, first_q=0):
    """``tl`` / ``xl`` records as the columns a cut hands to the folder."""
    names = fmt.COLUMNS[records[0]["k"]]
    rows = [dict(record, q=first_q + q) for q, record in enumerate(records)]
    return {name: [row[name] for row in rows] for name in names}


def test_rule_burst_expands_byte_exactly(tmp_path):
    """A storm of one rule's firings is one ``re`` block of plain
    columns, and reads back as the records that went in."""
    records = rule_run("n1:1", "r1", 6)
    store = closed_store(tmp_path / "s", records)
    (segment,) = store._segments
    assert segment.summary["blocks"] == [{"k": "re", "off": 0, "rows": 6}]
    assert store.records_written == 6 and store.bursts_written == 0
    assert encoded(store.events()) == encoded(records)


def test_short_runs_stay_uncompressed():
    columns = log_columns(noise_run("n1:1", 3))
    assert fold_noise(fmt.TUPLE_LOG, columns, min_run=4) == (columns, [])


def test_run_breaks_on_rule_change(tmp_path):
    """Two rules' runs share a block and its dictionary, and each row
    keeps its own rule."""
    records = rule_run("n1:1", "r1", 4) + rule_run("n1:1", "r2", 4, t0=9.0)
    store = closed_store(tmp_path / "s", records)
    assert [r["r"] for r in store.events()] == ["r1"] * 4 + ["r2"] * 4
    assert len(store.edges_to("n1:1", 11)) == 2  # one firing of each


def test_event_and_precondition_edges_never_share_a_burst(tmp_path):
    """``ev`` is a column of its own (stored 0/1): event and
    precondition edges of one rule come back as what they were."""
    records = rule_run("n1:1", "r1", 4, ev=True) + rule_run(
        "n1:1", "r1", 4, ev=False, t0=9.0
    )
    store = closed_store(tmp_path / "s", records)
    assert [r["ev"] for r in store.events()] == [True] * 4 + [False] * 4
    assert [e["ev"] for e in store.edges_to("n1:1", 12)] == [True, False]


def test_noise_log_burst_is_counted_with_exact_window(tmp_path):
    records = noise_run("n1:1", 8, t0=3.0)
    kept, bursts = fold_noise(fmt.TUPLE_LOG, log_columns(records, first_q=5))
    assert not kept["q"] and len(bursts) == 1
    assert dict(zip(fmt.COLUMNS[fmt.LOG_BURST], bursts[0])) == {
        "q": 12, "n": "n1:1", "lk": fmt.TUPLE_LOG, "rel": "periodic",
        "op": None, "cnt": 8, "tf": 3.0, "sf": 1, "sl": 8, "t": 10.0,
    }
    # Lossy tier: what reads back is the burst itself, not fabricated rows.
    store = closed_store(tmp_path / "s", records)
    assert store.bursts_written == 1 and store.records_written == 1
    assert store.events() == [
        {
            "k": fmt.LOG_BURST, "lk": fmt.TUPLE_LOG, "n": "n1:1",
            "rel": "periodic", "cnt": 8, "tf": 3.0, "tl": 10.0,
            "sf": 1, "sl": 8, "t": 10.0,
        }
    ]


def test_run_breaks_on_op_change():
    records = [
        fmt.table_log_record("n1:1", i, 1.0 + i, "periodic", op, "p()")
        for i, op in enumerate(["new"] * 4 + ["expire"] * 5)
    ]
    kept, bursts = fold_noise(fmt.TABLE_LOG, log_columns(records))
    assert not kept["q"]
    assert [(b[4], b[5]) for b in bursts] == [("new", 4), ("expire", 5)]


def test_non_noise_relations_never_log_burst():
    columns = log_columns(noise_run("n1:1", 8, rel="lookup"))
    assert fold_noise(fmt.TUPLE_LOG, columns, min_run=4) == (columns, [])


def test_logical_event_count_is_preserved(tmp_path):
    records = (
        rule_run("n1:1", "r1", 7)
        + noise_run("n1:1", 5)
        + rule_run("n1:1", "r2", 2)
    )
    store = closed_store(tmp_path / "s", records)
    assert store.records_written == 10  # nine edges and one burst
    assert store.events_appended == len(records)
    assert sum(fmt.logical_events(r) for r in store.events()) == len(records)
    assert store.compression_ratio == len(records) / 10


def test_layout_groups_interleaved_records_for_compression(tmp_path):
    # A live capture interleaves kinds per firing: the noise entries of
    # one (node, relation) are never consecutive in arrival order, and
    # fold all the same — a segment groups them wherever they sit.
    interleaved = []
    for i in range(6):
        interleaved.append(
            fmt.tuple_ident_record(
                "n1:1", 100 + i, "n1:1", 100 + i, "n1:1", 1.0 + i, None
            )
        )
        interleaved.extend(noise_run("n1:1", 1, t0=1.0 + i))
        interleaved.extend(rule_run("n1:1", "r1", 1, base_tid=10 + i, t0=1.0 + i))
    store = closed_store(tmp_path / "a", interleaved)
    kinds = [r["k"] for r in store.events()]
    assert kinds.count(fmt.LOG_BURST) == 1 and fmt.TUPLE_LOG not in kinds
    assert sum(fmt.logical_events(r) for r in store.events()) == len(interleaved)
    # Folding is a pure function of the capture: same input, same bytes.
    again = closed_store(tmp_path / "b", list(interleaved))
    for one, two in zip(store.segment_paths(), again.segment_paths()):
        with open(one, "rb") as a, open(two, "rb") as b:
            assert a.read() == b.read()


def test_expand_all_round_trips_mixed_stream(tmp_path):
    """Two nodes' runs, identities with and without payloads and log
    entries, interleaved: every column of every block expands back into
    the records that went in."""
    records = []
    for i, (one, two) in enumerate(
        zip(rule_run("n1:1", "r1", 5), rule_run("n2:2", "r1", 5, t0=1.25))
    ):
        payload = {"rel": "hop", "v": ["n2:2", i, [i, None], {"!r": "<obj>"}]}
        records += [
            one,
            fmt.tuple_ident_record("n1:1", i, "n1:1", i, "n2:2", one["t"], payload),
            two,
            fmt.tuple_ident_record("n2:2", i, "n1:1", i, 7, two["t"], None),
            fmt.table_log_record("n2:2", i, two["t"], "hop", "new", f"hop({i})"),
        ]
    records += noise_run("n2:2", 3, t0=20.0)
    store = closed_store(tmp_path / "s", records, segment_events=8)
    assert store.segments_written == 4 and store.bursts_written == 0
    assert encoded(store.events()) == encoded(records)


def test_min_run_below_two_rejected():
    with pytest.raises(ValueError):
        fold_noise(fmt.TUPLE_LOG, log_columns(noise_run("n1:1", 8)), min_run=1)
