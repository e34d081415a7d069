"""Segment files: blocks, summaries, pruning, offset reads, provenance."""

from __future__ import annotations

import json
import os

from repro import codec
from repro.overlog.types import INFINITY, NodeID
from repro.store import format as fmt
from repro.store.segment import Segment, code_blocks, write_segment
from tests.store.feeding import columns_of


def sample_records():
    return [
        fmt.tuple_ident_record(
            "n1:1", 1, "n1:1", 1, "n1:1", 0.5,
            {"rel": "start", "v": ["n1:1", 7]},
        ),
        fmt.rule_exec_record("n1:1", "r1", 1, 2, 0.5, 0.6, True),
        fmt.tuple_log_record("n1:1", 1, 0.6, "hop", "hop(n2:2, 7)"),
        fmt.rule_exec_record("n2:2", "r2", 3, 4, 1.0, 1.1, True),
        fmt.table_log_record("n2:2", 1, 1.1, "succ", "new", "succ(...)"),
    ]


def rule_run():
    """Six firings of one rule, at t = 1.5 .. 6.5."""
    return [
        fmt.rule_exec_record("n1:1", "r1", 10 + i, 11 + i, 1.0 + i, 1.5 + i, True)
        for i in range(6)
    ]


def written(directory, records, seg_id=1):
    summary = write_segment(
        str(directory), seg_id, code_blocks(seg_id, columns_of(records))
    )
    return Segment(str(directory), summary)


def scanned(segment, t0=None, t1=None, node=None, relation=None, kind=None):
    return [
        record
        for _, _, record in sorted(
            segment.scan(t0, t1, node, relation, kind), key=lambda e: e[:2]
        )
    ]


def test_write_segment_summary(tmp_path):
    summary = written(tmp_path, sample_records()).summary
    assert summary["t0"] == 0.5 and summary["t1"] == 1.1
    assert summary["nodes"] == ["n1:1", "n2:2"]
    assert summary["rels"] == ["hop", "start", "succ"]
    assert summary["records"] == 5 and summary["events"] == 5
    # Lookup keys only — effects and identities: cause 3 on n2:2 is
    # nothing a lookup into this segment could ask for.
    assert summary["tids"] == {"n1:1": [1, 2], "n2:2": [4, 4]}
    assert [(b["k"], b["rows"]) for b in summary["blocks"]] == [
        ("re", 2), ("tt", 1), ("p", 1), ("tl", 1), ("xl", 1)
    ]
    assert summary["bytes"] == os.path.getsize(tmp_path / summary["file"])


def test_segment_files_are_byte_stable(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    a.mkdir()
    b.mkdir()
    assert written(a, sample_records()).summary == written(
        b, sample_records()
    ).summary
    assert os.listdir(a) == ["seg-000001.jsonl"]
    assert (a / "seg-000001.jsonl").read_bytes() == (
        b / "seg-000001.jsonl"
    ).read_bytes()


def test_pruning_predicates(tmp_path):
    segment = written(tmp_path, sample_records())
    assert segment.overlaps_time(0.0, 0.5)
    assert not segment.overlaps_time(2.0, None)
    assert not segment.overlaps_time(None, 0.4)
    assert segment.has_node("n2:2") and not segment.has_node("n9:9")
    assert segment.has_relation("hop") and not segment.has_relation("ghost")
    assert segment.may_hold_tid("n1:1", 2)
    assert not segment.may_hold_tid("n1:1", 3)
    assert not segment.may_hold_tid("n2:2", 3)  # a cause, never a key
    assert not segment.may_hold_tid("n9:9", 1)


def test_offset_reads_match_full_scan(tmp_path):
    segment = written(tmp_path, sample_records())
    with open(segment.path) as handle:
        lines = handle.read().splitlines()
    for entry, line in zip(segment.summary["blocks"], lines):
        # A fresh reader each time: one block, found by its offset.
        reader = Segment(str(tmp_path), segment.summary)
        (block,) = reader.fetch([entry["k"]]).values()
        if entry["k"] == fmt.PAYLOADS:
            assert block == {0: ["n1:1", 7]}
        else:
            assert block.cols == json.loads(line)
            assert block.rows == entry["rows"]


def test_select_filters(tmp_path):
    segment = written(tmp_path, sample_records())
    assert len(scanned(segment)) == 5
    assert len(scanned(segment, node="n2:2")) == 2
    assert len(scanned(segment, kind=fmt.RULE_EXEC)) == 2
    assert len(scanned(segment, t0=1.0)) == 2
    assert [r["k"] for r in scanned(segment, relation="hop")] == [fmt.TUPLE_LOG]
    assert [r["k"] for r in scanned(segment, relation="start")] == [
        fmt.TUPLE_IDENT
    ]
    assert scanned(segment, relation="ghost") == []
    assert scanned(segment, node="n1:1", kind=fmt.TABLE_LOG) == []


def test_burst_is_reachable_by_any_window_touching_its_members(tmp_path):
    # A run spans t = 1.5 .. 6.5: a window ending or starting inside it
    # selects exactly the members it covers.
    run = rule_run()
    segment = written(tmp_path, run)
    assert (segment.t0, segment.t1) == (1.5, 6.5)
    assert segment.overlaps_time(None, 3.0)
    assert not segment.overlaps_time(None, 0.5)
    assert scanned(segment, t1=3.0) == run[:2]
    assert scanned(segment, t0=3.0, t1=4.0, kind=fmt.RULE_EXEC) == run[2:3]
    assert scanned(segment, t0=7.0) == []


def test_provenance_lookups_expand_bursts(tmp_path):
    """A lookup into a run of firings returns the one edge asked for,
    as a whole ``re`` record."""
    run = rule_run()
    segment = written(tmp_path, run)
    assert segment.edges_to("n1:1", 13) == [run[2]]
    assert segment.edges_to("n1:1", 99) == []
    assert segment.edges_to("n9:9", 13) == []


def test_ident_rows_in_write_order(tmp_path):
    payload = {"rel": "hop", "v": ["n1:1", 5]}
    records = [
        fmt.tuple_ident_record("n1:1", 5, "n1:1", 5, "n1:1", 0.1, None),
        fmt.tuple_ident_record("n1:1", 5, "n2:2", 9, "n1:1", 0.2, payload),
        fmt.tuple_ident_record("n1:1", 5, "n3:3", 2, "n1:1", 0.3, None),
    ]
    segment = written(tmp_path, records)
    block = segment.fetch([fmt.TUPLE_IDENT])[fmt.TUPLE_IDENT]
    assert block.rows_of("n1:1", 5) == [0, 1, 2]
    assert segment.source_of("n1:1", 5) == ("n3:3", 2)  # the latest row
    assert segment.contents_of("n1:1", 5) == payload  # the first carrying one
    assert segment.source_of("n1:1", 6) is None
    assert segment.contents_of("n1:1", 6) is None


def test_segment_file_is_canonical_json(tmp_path):
    segment = written(tmp_path, sample_records())
    with open(segment.path) as handle:
        for raw in handle.read().splitlines():
            parsed = json.loads(raw)
            assert raw == json.dumps(parsed, sort_keys=True, separators=(",", ":"))
            assert parsed["seg"] == 1


def test_dictionary_keeps_equal_values_of_different_types_apart(tmp_path):
    """``l`` is a tuple's first field, whatever that is: values Python
    calls equal (``1 == 1.0 == True``, ``0.0 == -0.0``) and values it
    cannot hash must each come back as themselves."""
    locations = [
        1, 1.0, True, "1", None, [1, "x"], NodeID(1, 8), INFINITY, -0.0, 0.0, 0
    ]
    records = [
        fmt.tuple_ident_record("n1:1", i, "n1:1", i, loc, 0.5, None)
        for i, loc in enumerate(locations)
    ]
    segment = written(tmp_path, records)
    assert [codec.dumps(r) for r in scanned(segment)] == [
        codec.dumps(r) for r in records
    ]
    block = segment.fetch([fmt.TUPLE_IDENT])[fmt.TUPLE_IDENT]
    assert len(set(block.cols["l"])) == len(locations)
