"""Segment files: summaries, pruning, offset reads, provenance."""

from __future__ import annotations

import json
import os

from repro.store import format as fmt
from repro.store.compress import BurstCompressor
from repro.store.segment import SegmentReader, write_segment


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
    """Six firings of one rule, at t = 1.5 .. 6.5: one ``re.b`` burst."""
    return [
        fmt.rule_exec_record("n1:1", "r1", 10 + i, 11 + i, 1.0 + i, 1.5 + i, True)
        for i in range(6)
    ]


def test_write_segment_summary(tmp_path):
    summary = write_segment(str(tmp_path), 1, sample_records())
    assert summary["t0"] == 0.5 and summary["t1"] == 1.1
    assert summary["nodes"] == ["n1:1", "n2:2"]
    assert summary["records"] == 5 and summary["events"] == 5
    assert summary["tids"] == {"n1:1": [1, 2], "n2:2": [3, 4]}
    assert os.path.exists(tmp_path / summary["file"])
    assert os.path.exists(tmp_path / summary["index"])


def test_segment_files_are_byte_stable(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    a.mkdir()
    b.mkdir()
    write_segment(str(a), 1, sample_records())
    write_segment(str(b), 1, sample_records())
    for name in ("seg-000001.jsonl", "seg-000001.idx.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_pruning_predicates(tmp_path):
    reader = SegmentReader(
        str(tmp_path), write_segment(str(tmp_path), 1, sample_records())
    )
    assert reader.overlaps_time(0.0, 0.5)
    assert not reader.overlaps_time(2.0, None)
    assert not reader.overlaps_time(None, 0.4)
    assert reader.has_node("n2:2") and not reader.has_node("n9:9")
    assert reader.has_relation("hop") and not reader.has_relation("ghost")
    assert reader.may_hold_tid("n1:1", 2)
    assert not reader.may_hold_tid("n1:1", 3)
    assert not reader.may_hold_tid("n9:9", 1)


def test_offset_reads_match_full_scan(tmp_path):
    records = sample_records()
    reader = SegmentReader(
        str(tmp_path), write_segment(str(tmp_path), 1, records)
    )
    by_offset = reader.records_at([0, 2, 4])
    assert [fmt.encode(r) for r in by_offset] == [
        fmt.encode(records[i]) for i in (0, 2, 4)
    ]


def test_select_filters(tmp_path):
    reader = SegmentReader(
        str(tmp_path), write_segment(str(tmp_path), 1, sample_records())
    )
    assert len(reader.select(node="n2:2")) == 2
    assert len(reader.select(kind=fmt.RULE_EXEC)) == 2
    assert len(reader.select(t0=1.0)) == 2
    only_hop = reader.select(relation="hop")
    # tt (payload-bearing) and burst records pass for caller-level
    # expansion; the tl row matches directly.
    assert any(r["k"] == fmt.TUPLE_LOG for r in only_hop)


def test_burst_is_reachable_by_any_window_touching_its_members(tmp_path):
    # The run collapses into one re.b row whose ``t`` is 6.5: neither
    # the segment summary nor the sidecar pre-filter may use that to
    # drop a window ending mid-burst.
    compressed = BurstCompressor(min_run=4).compress(rule_run())
    assert [r["k"] for r in compressed] == [fmt.RULE_BURST]
    summary = write_segment(str(tmp_path), 1, compressed)
    assert summary["t0"] <= 1.5 and summary["t1"] == 6.5
    reader = SegmentReader(str(tmp_path), summary)
    assert reader.overlaps_time(None, 3.0)
    assert not reader.overlaps_time(None, 0.5)
    assert reader.select(t1=3.0) == compressed
    assert reader.select(t0=3.0, t1=4.0, kind=fmt.RULE_EXEC) == compressed
    assert reader.select(t0=7.0) == []


def test_provenance_lookups_expand_bursts(tmp_path):
    compressed = BurstCompressor(min_run=4).compress(rule_run())
    assert compressed[0]["k"] == fmt.RULE_BURST
    reader = SegmentReader(
        str(tmp_path), write_segment(str(tmp_path), 1, compressed)
    )
    edges = reader.edges_to("n1:1", 13)
    assert len(edges) == 1
    assert edges[0]["k"] == fmt.RULE_EXEC
    assert edges[0]["c"] == 12 and edges[0]["e"] == 13
    assert reader.edges_to("n1:1", 99) == []


def test_ident_rows_in_write_order(tmp_path):
    records = [
        fmt.tuple_ident_record("n1:1", 5, "n1:1", 5, "n1:1", 0.1, None),
        fmt.tuple_ident_record("n1:1", 5, "n2:2", 9, "n1:1", 0.2, None),
    ]
    reader = SegmentReader(
        str(tmp_path), write_segment(str(tmp_path), 1, records)
    )
    rows = reader.ident_rows("n1:1", 5)
    assert [r["s"] for r in rows] == ["n1:1", "n2:2"]


def test_sidecar_is_canonical_json(tmp_path):
    summary = write_segment(str(tmp_path), 1, sample_records())
    raw = (tmp_path / summary["index"]).read_text()
    parsed = json.loads(raw)
    assert raw == json.dumps(parsed, sort_keys=True, separators=(",", ":"))
