"""The ForensicStore end-to-end: capture, flush, reopen, query, CLI."""

from __future__ import annotations

import hashlib
import json
from collections import Counter

import pytest

from repro import codec
from repro.core.system import System
from repro.errors import ReproError
from repro.overlog.types import INFINITY
from repro.runtime.table import Ring
from repro.sim.batch import ExecutionConfig
from repro.store import format as fmt
from repro.store.store import ForensicStore, StoreConfig
from tests.conftest import run_cli
from tests.store.feeding import feed_all


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
        sum(s.summary["events"] for s in store._segments)
        == sum(fmt.logical_events(r) for r in store.events())
        == store.events_appended
    )
    assert store.buffered == 0


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
    assert [codec.dumps(r) for r in events] == [codec.dumps(r) for r in again]


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


def test_each_minted_tid_persists_its_payload_once(tmp_path):
    """A send writes the sender's row twice, an arrival the receiver's
    row twice, and a tuple re-sent after its row expired is minted a
    fresh tid: every ``(node, tid)`` still carries exactly one payload,
    on its first identity record."""
    system = System(
        seed=2, trace_lifetime=1.0, store=StoreConfig(str(tmp_path / "s"))
    )
    for address, peer in (("a:1", "b:1"), ("b:1", "a:1")):
        node = system.add_node(address, tracing=True)
        node.install_source(
            "materialize(peer, infinity, 1, keys(1)).\n"
            "s1 ping@P(N, 1) :- periodic@N(E, 2), peer@N(P)."
        )
        node.inject("peer", (address, peer))
    system.run_for(12.0)
    records = system.store.events(kind=fmt.TUPLE_IDENT)
    writes, payloads = Counter(), Counter()
    for record in records:
        key = (record["n"], record["i"])
        if "rep" in record:
            assert not writes[key], f"{key}: payload after its first write"
            payloads[key] += 1
        writes[key] += 1
    assert set(payloads) == set(writes)
    assert set(payloads.values()) == {1}
    # The send and the arrival each wrote a row twice ...
    assert max(writes.values()) == 2
    # ... and the same ping, re-sent after expiry, got fresh tids.
    pings = Counter(
        (record["n"], json.dumps(record["rep"]))
        for record in records
        if record.get("rep", {}).get("rel") == "ping"
    )
    assert pings and min(pings.values()) >= 4


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


#: sha256 of every file ``pinned_records`` produces, re-pinned once for
#: store format v3 (payload values spelled by ``repro.codec``: a NodeID
#: and ``infinity`` are tagged, nothing degrades): the writer may get
#: faster, never different.
PINNED_DIGESTS = {
    "manifest.json":
        "b674ceecad6990072a15c4fe05e5c3b54a9f070c474aed237eedd295a680e6d9",
    "seg-000001.jsonl":
        "8455fc60701959bd6fc6948012c715cc3a81fb73b5252ff01777ee22f3f676d0",
    "seg-000002.jsonl":
        "d378768e1d398a3ee45068037c0c5eec9b4d1f85bd49d2ae7a7346515f2ade1a",
}


def pinned_records():
    """Every record kind, a firing storm, a noise storm that folds into
    a ``log.b`` row, and the
    values a JSON writer can get wrong: non-ASCII text, ``-0.0``, a
    small exponent, an int past 2**64, nesting, a NodeID and
    ``infinity``."""
    payload = {
        "rel": "start",
        "v": [
            "n1:1", 7, "café ☃", -0.0, 1e-07, 2**70,
            [1, [2.5, None]], {"nodeid": [3141592653, 32]}, {"infinity": None},
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


def rotated_once(node: str, name: str):
    """A store's rotations source, as a system hands it: the eviction
    counter of one ring that has evicted one row."""
    ring = Ring(name, INFINITY, 1, [2], lambda: 0.0)
    ring.append((node, 1))
    ring.append((node, 2))
    return lambda: {(node, name): ring.evicted}


def test_written_files_match_digests_pinned_at_the_parent(tmp_path):
    store = ForensicStore(
        StoreConfig(directory=str(tmp_path / "s"), segment_events=12),
        rotations=rotated_once("n1:1", "tupleLog"),
    )
    feed_all(store, pinned_records())
    store.close()
    assert store.bursts_written == 1 and store.segments_written == 2
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
    feed_all(store, pinned_records())  # one full segment, four left over
    assert writes == [1]
    store.close()
    assert writes == [1, 2], "close() rewrote what its last cut just wrote"
    assert ForensicStore.open(str(tmp_path / "s")).events() == store.events()

    idle = ForensicStore(
        StoreConfig(directory=str(tmp_path / "idle")),
        rotations=rotated_once("n1:1", "ruleExec"),
    )
    idle.close()
    assert writes == [1, 2, 0]
    assert ForensicStore.open(str(tmp_path / "idle")).ring_rotations


def test_tick_mode_flushes_at_tick_barriers(tmp_path, monkeypatch):
    """The store's one cut mode: a run cuts a segment only at a tick
    barrier, never mid-tick, and only once ``segment_events`` (64 here)
    are buffered."""
    barriers, cuts = [], []
    on_tick_barrier = ForensicStore.on_tick_barrier
    flush_segment = ForensicStore.flush_segment

    def at_barrier(self, when):
        barriers.append(when)
        on_tick_barrier(self, when)
        barriers.pop()

    def cut(self):
        cuts.append((bool(barriers), self.buffered))
        flush_segment(self)

    monkeypatch.setattr(ForensicStore, "on_tick_barrier", at_barrier)
    monkeypatch.setattr(ForensicStore, "flush_segment", cut)
    system, got = chain_system(
        tmp_path,
        injections=30,
        execution=ExecutionConfig(tick=0.001),
    )
    assert len(got) == 30
    store = system.store
    assert cuts, "no segment was cut mid-run"
    assert all(in_barrier and held >= 64 for in_barrier, held in cuts), cuts
    assert store.segments_written == len(cuts)
    system.close_store()
    assert (
        sum(fmt.logical_events(r) for r in store.events())
        == store.events_appended
    )


def poke_store(directory, compress, spacing=0.0):
    """Sixty firings of one rule into a closed store whose ``poke`` log
    entries count as noise; with ``spacing`` they are that many sim-s
    apart, so every ``log.b`` burst covers a stretch of time rather
    than an instant."""
    system = System(
        seed=2,
        store=StoreConfig(
            directory=str(directory),
            segment_events=64,
            compress=compress,
            noise_relations=("poke",),
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
    assert poke_store(tmp_path / "packed", compress=True).compression_ratio > 1.0


def test_rule_exec_query_sees_through_burst_compression(tmp_path, capsys):
    """``kind="re"`` returns the same rule executions whether or not
    the segments around them fold log noise into ``log.b`` bursts."""
    plain = poke_store(tmp_path / "plain", compress=False)
    packed = poke_store(tmp_path / "packed", compress=True)
    assert packed.bursts_written > 0
    expected = [codec.dumps(r) for r in plain.events(kind=fmt.RULE_EXEC)]
    assert len(expected) >= 60
    assert [
        codec.dumps(r) for r in packed.events(kind=fmt.RULE_EXEC)
    ] == expected
    assert run_cli("store", "query", packed.config.directory, "--kind", "re") == 0
    assert capsys.readouterr().out.splitlines() == expected


def test_time_window_cutting_through_a_burst_keeps_its_members(tmp_path):
    """``events(t0, t1)`` is the brute-force time filter of ``events()``
    even when the window cuts through a run of firings, or through a
    counted burst (one event, at its last member's time), with noise
    folding on and off."""
    plain = poke_store(tmp_path / "plain", compress=False, spacing=0.05)
    packed = poke_store(tmp_path / "packed", compress=True, spacing=0.05)
    bursts = [r for r in packed.events() if r["k"] == fmt.LOG_BURST]
    assert bursts and all(burst["tf"] < burst["t"] for burst in bursts)

    def lossless(store):
        return [
            codec.dumps(r) for r in store.events() if r.get("rel") != "poke"
        ]

    assert lossless(plain) == lossless(packed)
    windows = [(None, 1.0), (0.4, 0.9), (1.0, 1.02), (2.0, None)]
    for burst in bursts:
        inside = (burst["tf"] + burst["t"]) / 2
        windows += [
            (None, inside), (burst["tf"], inside), (inside, inside),
            (inside, burst["t"]),
        ]
    for store in (packed, plain):
        everything = store.events()
        for t0, t1 in windows:
            expected = [
                codec.dumps(r)
                for r in everything
                if (t0 is None or r["t"] >= t0) and (t1 is None or r["t"] <= t1)
            ]
            got = store.events(t0=t0, t1=t1)
            assert [codec.dumps(r) for r in got] == expected, (t0, t1)


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
