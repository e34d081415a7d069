"""The ForensicStore end-to-end: capture, flush, reopen, query, CLI."""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core.system import System
from repro.errors import ReproError
from repro.sim.batch import ExecutionConfig
from repro.store import format as fmt
from repro.store.store import ForensicStore, StoreConfig
from tests.conftest import run_cli


CHAIN = "r1 hop@Dst(X) :- start@N(Dst, X)."
FINAL = "r2 final@N(X) :- hop@N(X)."


def chain_system(tmp_path, seed=1, injections=10, **system_kwargs):
    system = System(
        seed=seed,
        store=StoreConfig(directory=str(tmp_path / "store"), segment_events=64),
        **system_kwargs,
    )
    a = system.add_node("a:1", tracing=True, logging=True)
    b = system.add_node("b:1", tracing=True, logging=True)
    a.install_source(CHAIN)
    b.install_source(FINAL)
    got = system.collect("final", on=["b:1"])
    for i in range(injections):
        a.inject("start", ("a:1", "b:1", i))
    system.run_for(5.0)
    return system, got


def test_capture_and_flush(tmp_path):
    system, got = chain_system(tmp_path)
    assert len(got) == 10
    store = system.store
    assert store.events_appended > 0
    system.close_store()
    assert store.segments_written >= 1
    assert store.closed
    # Totals reconcile: every appended event landed in a segment.
    assert (
        sum(fmt.logical_events(r) for s in store._segments for r in s.records())
        == store.events_appended
    )


def test_reopen_matches_live_store(tmp_path):
    system, _ = chain_system(tmp_path)
    live = system.close_store()
    reopened = ForensicStore.open(live.config.directory)
    assert reopened.events_appended == live.events_appended
    assert reopened.records_written == live.records_written
    assert reopened.segment_files() == live.segment_files()
    assert reopened.nodes() == live.nodes()


def test_open_missing_store_raises(tmp_path):
    with pytest.raises(ReproError):
        ForensicStore.open(str(tmp_path / "nowhere"))


def test_query_filters(tmp_path):
    system = System(
        seed=4,
        store=StoreConfig(directory=str(tmp_path / "store"), segment_events=64),
    )
    a = system.add_node("a:1", tracing=True, logging=True)
    b = system.add_node("b:1", tracing=True, logging=True)
    a.install_source(CHAIN)
    b.install_source(FINAL)
    for i in range(5):
        a.inject("start", ("a:1", "b:1", i))
    system.run_for(10.0)
    for i in range(5, 10):
        a.inject("start", ("a:1", "b:1", i))
    system.run_for(10.0)
    store = system.close_store()
    finals = store.events(node="b:1", relation="final", kind=fmt.TUPLE_IDENT)
    assert len(finals) == 10
    assert all(r["rel"] == "final" for r in finals)
    early = store.events(
        node="b:1", relation="final", kind=fmt.TUPLE_IDENT, t1=5.0
    )
    late = store.events(
        node="b:1", relation="final", kind=fmt.TUPLE_IDENT, t0=5.0
    )
    assert len(early) == 5 and len(late) == 5
    assert store.events(node="z:9") == []
    limited = store.events(limit=7)
    assert len(limited) == 7


def test_events_are_time_sorted_and_stable(tmp_path):
    system, _ = chain_system(tmp_path)
    store = system.close_store()
    events = store.events()
    times = [r["t"] for r in events]
    assert times == sorted(times)
    again = ForensicStore.open(store.config.directory).events()
    assert [fmt.encode(r) for r in events] == [fmt.encode(r) for r in again]


def test_live_queries_see_unflushed_buffer(tmp_path):
    system = System(
        seed=3,
        store=StoreConfig(
            directory=str(tmp_path / "store"), segment_events=100000
        ),
    )
    a = system.add_node("a:1", tracing=True)
    a.install_source("r local@N(X) :- poke@N(X).")
    a.inject("poke", ("a:1", 1))
    system.run_for(1.0)
    store = system.store
    assert store.segments_written == 0  # nothing flushed yet
    assert store.events(node="a:1", kind=fmt.RULE_EXEC)


def test_seeded_runs_produce_identical_stores(tmp_path):
    first, _ = chain_system(tmp_path / "one", seed=9)
    second, _ = chain_system(tmp_path / "two", seed=9)
    a = first.close_store()
    b = second.close_store()
    files_a = sorted((tmp_path / "one" / "store").iterdir())
    files_b = sorted((tmp_path / "two" / "store").iterdir())
    assert [f.name for f in files_a] == [f.name for f in files_b]
    for fa, fb in zip(files_a, files_b):
        assert fa.read_bytes() == fb.read_bytes()


#: sha256 of every file ``pinned_records`` produces, taken at a6de306
#: (sidecar and manifest through ``json.dump``, data lines through a
#: text-mode handle): the writer may get faster, never different.
PINNED_DIGESTS = {
    "manifest.json":
        "b5f2f0e5b4f65a4febc46b283bc09e7721ac96bc12a14fe03bf634e08d32009a",
    "seg-000001.idx.json":
        "7542747022d12032bd638be905a6afbf7d2a9659ec9357e5e96f9d8b10ccdf53",
    "seg-000001.jsonl":
        "83e34809f50cc6e1a0c6d11f35df57aeb75f4438a5f5dd47551e2d4f2582cdb1",
    "seg-000002.idx.json":
        "339f91741c1a3429f786c23022493aa0666e4193d27b0ba6ff46af5e59606288",
    "seg-000002.jsonl":
        "624c60606c1a42992c538051216d4636ca8cf86f7939c956b2a47d3bd72e16d1",
}


def pinned_records():
    """Every record kind, both burst kinds once compressed, and the
    values a JSON writer can get wrong: non-ASCII text, ``-0.0``, a
    small exponent, an int past 2**64, nesting, a degraded value."""
    payload = {
        "rel": "start",
        "v": [
            "n1:1", 7, "café ☃", -0.0, 1e-07, 2**70,
            [1, [2.5, None]], {"!r": "<obj>"},
        ],
    }
    records = [
        fmt.tuple_ident_record("n1:1", 1, "n1:1", 1, "n1:1", 0.5, payload),
        fmt.rule_exec_record("n1:1", "r1", 1, 2, 0.5, 0.6, True),
        fmt.tuple_log_record("n1:1", 1, 0.6, "hop", "hop(n2:2, 7)"),
        fmt.rule_exec_record("n2:2", "r2", 3, 4, 1.0, 1.1, False),
        fmt.table_log_record("n2:2", 1, 1.1, "succ", "new", "succ(ü)"),
    ]
    records += [
        fmt.rule_exec_record(
            "n1:1", "r9", 10 + i, 11 + i, 1.0 + i, 1.5 + i, True
        )
        for i in range(6)
    ]
    records += [
        fmt.tuple_log_record(
            "n1:1", 2 + i, 2.0 + i / 8, "periodic", "periodic(n1:1)"
        )
        for i in range(5)
    ]
    return records


def test_written_files_match_digests_pinned_at_the_parent(tmp_path):
    store = ForensicStore(
        StoreConfig(directory=str(tmp_path / "s"), segment_events=12)
    )
    for record in pinned_records():
        store._append(record)
    store.ring_rotated("n1:1", "tupleLog")
    store.close()
    assert store.bursts_written == 2
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in (tmp_path / "s").iterdir()
    }
    assert digests == PINNED_DIGESTS


def test_manifest_is_written_once_per_cut_and_once_by_an_idle_close(
    tmp_path, monkeypatch
):
    store = ForensicStore(
        StoreConfig(directory=str(tmp_path / "s"), segment_events=12)
    )
    writes = []
    real = ForensicStore._write_manifest
    monkeypatch.setattr(
        ForensicStore,
        "_write_manifest",
        lambda self: writes.append(self.segments_written) or real(self),
    )
    for record in pinned_records():  # one full segment, four left over
        store._append(record)
    assert writes == [1]
    store.close()
    assert writes == [1, 2], "close() rewrote what its last cut just wrote"
    assert ForensicStore.open(str(tmp_path / "s")).events() == store.events()

    idle = ForensicStore(StoreConfig(directory=str(tmp_path / "idle")))
    idle.ring_rotated("n1:1", "ruleExec")
    idle.close()
    assert writes == [1, 2, 0]
    assert ForensicStore.open(str(tmp_path / "idle")).ring_rotations


def test_tick_mode_flushes_at_tick_barriers(tmp_path):
    system, got = chain_system(
        tmp_path,
        injections=30,
        execution=ExecutionConfig(tick=0.001),
    )
    assert len(got) == 30
    store = system.store
    assert store.tick_mode
    assert store.segments_written >= 1  # barrier hook cut segments mid-run
    system.close_store()
    assert (
        sum(fmt.logical_events(r) for s in store._segments for r in s.records())
        == store.events_appended
    )


def poke_store(directory, compress, spacing=0.0):
    """Sixty firings of one rule into a closed store; with ``spacing``
    they are that many sim-s apart, so every ``re.b`` burst covers a
    stretch of time rather than an instant."""
    system = System(
        seed=2,
        store=StoreConfig(
            directory=str(directory), segment_events=64, compress=compress
        ),
    )
    a = system.add_node("a:1", tracing=True, logging=True)
    a.install_source("r local@N(X) :- poke@N(X).")
    for i in range(60):
        a.inject("poke", ("a:1", i))
        if spacing:
            system.run_for(spacing)
    system.run_for(2.0)
    return system.close_store()


def test_compression_can_be_disabled(tmp_path):
    store = poke_store(tmp_path / "store", compress=False)
    assert store.compression_ratio == 1.0
    assert store.bursts_written == 0


def test_rule_exec_query_sees_through_burst_compression(tmp_path, capsys):
    """``kind="re"`` returns the same rule executions whether or not
    the segments hold them as ``re.b`` bursts."""
    plain = poke_store(tmp_path / "plain", compress=False)
    packed = poke_store(tmp_path / "packed", compress=True)
    assert packed.bursts_written > 0
    expected = [fmt.encode(r) for r in plain.events(kind=fmt.RULE_EXEC)]
    assert len(expected) >= 60
    assert [
        fmt.encode(r) for r in packed.events(kind=fmt.RULE_EXEC)
    ] == expected
    assert run_cli("store", "query", packed.config.directory, "--kind", "re") == 0
    assert capsys.readouterr().out.splitlines() == expected


def test_time_window_cutting_through_a_burst_keeps_its_members(tmp_path):
    """``events(t0, t1)`` is the brute-force time filter of ``events()``
    even when ``t1`` falls inside a burst (whose sidecar ``t`` is its
    last member's time), with compression on and off."""
    plain = poke_store(tmp_path / "plain", compress=False, spacing=0.05)
    packed = poke_store(tmp_path / "packed", compress=True, spacing=0.05)
    bursts = [
        r
        for r in packed.events(expand_bursts=False)
        if r["k"] == fmt.RULE_BURST
    ]
    assert bursts
    everything = packed.events()
    assert [fmt.encode(r) for r in plain.events()] == [
        fmt.encode(r) for r in everything
    ]
    windows = [(None, 1.0), (0.4, 0.9), (1.0, 1.02), (2.0, None)]
    for burst in bursts:
        inside = (burst["to"][0] + burst["t"]) / 2
        assert burst["to"][0] < inside < burst["t"]
        windows += [(None, inside), (burst["to"][0], inside), (inside, inside)]
    for t0, t1 in windows:
        expected = [
            fmt.encode(r)
            for r in everything
            if (t0 is None or r["t"] >= t0) and (t1 is None or r["t"] <= t1)
        ]
        for store in (packed, plain):
            got = store.events(t0=t0, t1=t1)
            assert [fmt.encode(r) for r in got] == expected, (t0, t1)


def test_cli_info_query_slice(tmp_path, capsys):
    system, got = chain_system(tmp_path)
    store = system.close_store()
    directory = store.config.directory

    assert run_cli("store", "info", directory) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["segments"] == store.segments_written
    assert info["nodes"] == ["a:1", "b:1"]

    assert (
        run_cli(
            "store", "query", directory,
            "--node", "b:1", "--relation", "final", "--kind", "tt",
        )
        == 0
    )
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 10  # one identity record per delivered final

    alarm = json.dumps(fmt.tuple_payload(got[-1]))
    assert run_cli("store", "slice", directory, "--alarm", alarm) == 0
    first = capsys.readouterr().out
    result = json.loads(first)
    assert result["counts"]["links"] >= 2
    assert result["counts"]["inputs"] >= 1
    # Byte-stable: the same slice twice is the same bytes.
    assert run_cli("store", "slice", directory, "--alarm", alarm) == 0
    assert capsys.readouterr().out == first


def test_cli_slice_errors(tmp_path, capsys):
    system, _ = chain_system(tmp_path)
    directory = system.close_store().config.directory
    assert run_cli("store", "slice", directory) == 2
    assert "--alarm --tid is required" in capsys.readouterr().err
    assert (
        run_cli("store", "slice", directory, "--alarm", '{"rel":"ghost","v":[]}')
        == 1
    )
    assert capsys.readouterr().err == (
        "error: slice: alarm tuple not found in store\n"
    )
    assert run_cli("store", "slice", directory, "--tid", "3") == 2
    assert "--tid requires --node" in capsys.readouterr().err
