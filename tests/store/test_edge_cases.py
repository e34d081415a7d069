"""Causality edge cases the store must survive.

Three ways real deployments break naive provenance walks:

- **replace ping-pong**: keyed tables replace rows in place and rules
  re-fire over the same (rule, cause, effect) identity, or worse, two
  tuples derive each other in a cycle — the slice must terminate and
  present one (the newest) edge per identity;
- **retransmitted wire mids**: a lossy reliable link retransmits; the
  receiver dedups, so provenance must see exactly one delivery per
  shipped tuple no matter how many frames carried it;
- **crash + restart**: the registry dies with the process, but the
  store does not — a pre-crash alarm still slices to its pre-crash
  firing, and a post-mortem replica backfills rows the rings rotated
  away.

And the ways disks and writers do: a segment truncated mid-block, a
flipped byte, segment files exchanged, another store's manifest, a
column shorter than its block, a code outside the block's dictionary, a
writer killed while replacing the manifest.  Every read path must
answer with a :class:`~repro.errors.StoreCorruptionError` naming the
file, block and byte offset — never a bare ``JSONDecodeError``, never a
slice built from the wrong rows — while what the damage does not reach
still answers.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.analysis import trace_back
from repro.core.system import System
from repro.errors import ReproError, StoreCorruptionError
from repro.net.network import ReliableConfig
from repro.recovery import RecoveryManager
from repro.store import (
    ForensicStore,
    MemoryProvider,
    StoreConfig,
    StoreProvider,
    backward_slice,
)
from repro.store import format as fmt
from repro.store.store import StoreConfig as SC
from tests.conftest import run_cli
from tests.store.feeding import feed, feed_all


# ----------------------------------------------------------------------
# Replace semantics and cycles


def test_synthetic_causal_cycle_terminates(tmp_path):
    store = ForensicStore(SC(directory=str(tmp_path / "s")))
    feed(store, fmt.tuple_ident_record("n:1", 1, "n:1", 1, "n:1", 0.1, None))
    feed(store, fmt.tuple_ident_record("n:1", 2, "n:1", 2, "n:1", 0.2, None))
    # ping(1) -> pong(2) -> ping(1): a ruleExec cycle.
    feed(store, fmt.rule_exec_record("n:1", "p1", 1, 2, 0.1, 0.2, True))
    feed(store, fmt.rule_exec_record("n:1", "p2", 2, 1, 0.2, 0.3, True))
    store.close()

    result = backward_slice(StoreProvider(store), "n:1", 2)
    assert len(result.links) == 2
    assert {l["r"] for l in result.links} == {"p1", "p2"}
    assert not result.truncated
    assert result.inputs == []  # every tuple has a producer in the cycle


def test_replaced_edge_keeps_only_the_newest_firing(tmp_path):
    store = ForensicStore(SC(directory=str(tmp_path / "s")))
    # The same (rule, cause, effect, ev) identity fired twice: ring
    # replace semantics keep only the newest, so must the slice.
    feed(store, fmt.rule_exec_record("n:1", "r", 1, 2, 0.1, 0.2, True))
    feed(store, fmt.rule_exec_record("n:1", "r", 1, 2, 5.0, 5.1, True))
    store.close()

    result = backward_slice(StoreProvider(store), "n:1", 2)
    assert len(result.links) == 1
    assert result.links[0]["to"] == 5.1


def test_live_replace_ping_pong_stays_differential(tmp_path):
    """A keyed table replaced over and over: re-derivations REFRESH the
    ruleExec identity and the store must not diverge from memory."""
    system = System(
        seed=11,
        store=StoreConfig(directory=str(tmp_path / "store")),
    )
    a = system.add_node("a:1", tracing=True, logging=True)
    a.install_source(
        """
        materialize(state, infinity, infinity, keys(2)).
        u1 state@N(K, V) :- update@N(K, V).
        """
    )
    # Same key replaced 6 times; the last value wins.
    for v in range(6):
        a.inject("update", ("a:1", "k", v))
        system.run_for(0.5)
    (row,) = a.query("state")
    assert row.values[2] == 5
    tid = a.registry.id_of(row)

    memory = MemoryProvider({"a:1": a})
    store = StoreProvider(system.store)
    mem = backward_slice(memory, "a:1", tid)
    dur = backward_slice(store, "a:1", tid)
    assert mem.to_json() == dur.to_json()
    assert len(mem.links) == 1
    assert mem.inputs and mem.inputs[0]["rep"]["rel"] == "update"


# ----------------------------------------------------------------------
# Retransmission over a lossy reliable link


def test_retransmitted_deliveries_keep_single_hop_provenance(tmp_path):
    system = System(
        seed=13,
        loss_rate=0.3,
        transport="reliable",
        reliable=ReliableConfig(rto=0.2, max_retries=6, jitter=0.05),
        store=StoreConfig(directory=str(tmp_path / "store")),
    )
    a = system.add_node("a:1", tracing=True, logging=True)
    b = system.add_node("b:1", tracing=True, logging=True)
    a.install_source("r1 hop@Dst(X) :- start@N(Dst, X).")
    b.install_source("r2 final@N(X) :- hop@N(X).")
    got = system.collect("final", on=["b:1"])
    for i in range(20):
        a.inject("start", ("a:1", "b:1", i))
    system.run_for(30.0)

    assert len(got) == 20, "reliable transport failed to deliver"
    assert system.network.stats.messages_retransmitted > 0, (
        "no retransmissions — the loss rate never bit, test is vacuous"
    )

    memory = MemoryProvider({"a:1": a, "b:1": b})
    store = StoreProvider(system.store)
    for final in got:
        tid = b.registry.id_of(final)
        mem = backward_slice(memory, "b:1", tid)
        dur = backward_slice(store, "b:1", tid)
        assert mem.to_json() == dur.to_json()
        # One shipped tuple, one hop — however many frames carried it.
        assert len(mem.hops) == 1
        assert len(mem.links) == 2


# ----------------------------------------------------------------------
# Crash + restart: the store outlives the registry


def crashed_chain(tmp_path, trace_entries=5000):
    system = System(
        seed=17,
        store=StoreConfig(directory=str(tmp_path / "store")),
        trace_entries=trace_entries,
    )
    a = system.add_node("a:1", tracing=True, logging=True)
    b = system.add_node("b:1", tracing=True, logging=True)
    manager = RecoveryManager(system, checkpoint_interval=10.0)
    manager.protect_all()
    a.install_source("r1 hop@Dst(X) :- start@N(Dst, X).")
    b.install_source(
        """
        materialize(final, infinity, infinity, keys(2)).
        r2 final@N(X) :- hop@N(X).
        """
    )
    for i in range(5):
        a.inject("start", ("a:1", "b:1", i))
    system.run_for(15.0)
    finals = b.query("final")
    assert len(finals) == 5
    alarm = finals[-1]
    tid = b.registry.id_of(alarm)
    return system, manager, alarm, tid


def test_pre_crash_alarm_slices_across_restart(tmp_path):
    system, manager, alarm, tid = crashed_chain(tmp_path)
    store = StoreProvider(system.store)
    before = backward_slice(store, "b:1", tid)
    assert before.hops and before.inputs

    manager.crash("b:1")
    system.run_for(2.0)
    manager.restart("b:1")
    system.run_for(2.0)

    # The store still attributes the pre-crash alarm to its pre-crash
    # firing, byte-for-byte.
    after = backward_slice(store, "b:1", tid)
    assert after.to_json() == before.to_json()
    # The payload→tid lookup used by the CLI keeps resolving too: the
    # newest matching identity still slices to a chain with the same
    # leaf input.
    found = system.store.tid_of("b:1", fmt.tuple_payload(alarm))
    assert found is not None
    sliced = backward_slice(store, "b:1", found)
    assert sliced.inputs == before.inputs


def test_trace_back_falls_back_to_store_after_rotation(tmp_path):
    system = System(
        seed=19,
        store=StoreConfig(directory=str(tmp_path / "store")),
        trace_entries=16,
        tuple_entries=48,
    )
    a = system.add_node("a:1", tracing=True, logging=True)
    b = system.add_node("b:1", tracing=True, logging=True)
    a.install_source("r1 hop@Dst(X) :- start@N(Dst, X).")
    b.install_source("r2 final@N(X) :- hop@N(X).")
    got = system.collect("final", on=["b:1"])
    a.inject("start", ("a:1", "b:1", 0))
    system.run_for(1.0)
    alarm = got[0]
    nodes = {"a:1": a, "b:1": b}
    full = trace_back(nodes, "b:1", alarm, store=system.store)
    assert [link.rule for link in full] == ["r2", "r1"]

    # Rotate the rings past the alarm's history.
    for i in range(1, 60):
        a.inject("start", ("a:1", "b:1", i))
    system.run_for(2.0)
    assert system.ring_rotations

    rings_only = trace_back(nodes, "b:1", alarm)
    recovered = trace_back(nodes, "b:1", alarm, store=system.store)
    assert len(rings_only) < 2, "rings kept the chain; rotation failed"
    assert [link.rule for link in recovered] == ["r2", "r1"]
    assert recovered[1].node == "a:1"
    assert recovered[1].crossed_network
    assert recovered[1].cause is not None
    assert recovered[1].cause.name == "start"


def test_postmortem_backfills_rotated_rows_from_store(tmp_path):
    system, manager, alarm, tid = crashed_chain(tmp_path, trace_entries=4)
    # The live ring held only the last 4 ruleExec rows.
    live_rows = len(system.node("b:1").query("ruleExec"))
    assert live_rows <= 4
    manager.crash("b:1")

    pm = manager.post_mortem("b:1")
    assert pm.backfilled["ruleExec"] > 0
    assert len(pm.query("ruleExec")) > live_rows

    rings_only = manager.post_mortem("b:1", store=False)
    assert rings_only.backfilled["ruleExec"] == 0
    assert len(rings_only.query("ruleExec")) == live_rows


# ----------------------------------------------------------------------
# Damaged files: typed, located errors from every read path


def two_segment_store(tmp_path, name="s", rule="r"):
    """A closed two-segment store (chains 1 -> 2 -> 3 on ``n:1`` in the
    first segment, 11 -> 12 -> 13 in the second; each segment an
    ``re``, a ``tt``, a payload and a ``tl`` block) and the directory
    it lives in."""
    directory = tmp_path / name
    store = ForensicStore(
        SC(directory=str(directory), segment_events=6, compress=False)
    )
    for base, t in ((1, 0.0), (11, 1.0)):
        for i in range(3):
            feed(
                store,
                fmt.tuple_ident_record(
                    "n:1", base + i, "n:1", base + i, "n:1", t + i / 10,
                    {"rel": "step", "v": ["n:1", base + i]},
                ),
            )
        for i in range(2):
            feed(
                store,
                fmt.rule_exec_record(
                    "n:1", rule, base + i, base + i + 1,
                    t + i / 10, t + (i + 1) / 10, True,
                ),
            )
        feed(store, fmt.tuple_log_record("n:1", base, t + 0.3, "step", "step(...)"))
    store.close()
    assert store.segments_written == 2
    assert [b["k"] for b in store._segments[0].summary["blocks"]] == [
        "re", "tt", "p", "tl"
    ]
    return directory


def read_paths(directory):
    """Each public way of reading segment 1 of ``two_segment_store``,
    by name, each from a fresh open so nothing is served from memory.
    The slice of tid 3 walks edges 2 -> 3 and 1 -> 2 (the ``re`` block)
    and the identity and payload of tid 1; ``edges_to`` reads only the
    ``re`` block and ``source_of`` only the ``tt`` block."""
    directory = str(directory)
    return {
        "events": lambda: ForensicStore.open(directory).events(),
        "edges_to": lambda: ForensicStore.open(directory).edges_to("n:1", 3),
        "source_of": lambda: ForensicStore.open(directory).source_of("n:1", 3),
        "slice": lambda: backward_slice(
            StoreProvider(ForensicStore.open(directory)), "n:1", 3
        ),
    }


CLI = {
    "events": lambda d: ["store", "query", d],
    "slice": lambda d: ["store", "slice", d, "--node", "n:1", "--tid", "3"],
}


def assert_reads_fail(
    directory, capsys, file, block=None,
    reads=("events", "edges_to", "source_of", "slice"), intact=True,
):
    paths = read_paths(directory)
    for name in reads:
        with pytest.raises(StoreCorruptionError) as caught:
            paths[name]()
        error = caught.value
        assert error.path.endswith(file), (name, error)
        assert file in str(error)
        if block is not None:
            assert error.block == block, (name, error)
            assert error.offset == block_offset(directory, block)
            assert f"block {block} at byte {error.offset}" in str(error)
        if name in CLI:
            assert run_cli(*CLI[name](str(directory))) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: corrupt forensic store")
            assert file in captured.err and "Traceback" not in captured.err
    # What the damage does not reach still answers.
    for name in set(paths) - set(reads):
        paths[name]()
    if intact:
        assert ForensicStore.open(str(directory)).edges_to("n:1", 13)


def block_offset(directory, kind, segment=0):
    manifest = json.loads((directory / "manifest.json").read_text())
    (entry,) = [
        b for b in manifest["segments"][segment]["blocks"] if b["k"] == kind
    ]
    return entry["off"]


def rewrite_block(directory, kind, old, new):
    """Replace ``old`` by ``new`` (same length: the offsets stay true)
    inside one block of segment 1."""
    assert len(old) == len(new)
    path = directory / "seg-000001.jsonl"
    lines = path.read_bytes().splitlines(keepends=True)
    (at,) = [i for i, line in enumerate(lines) if json.loads(line)["k"] == kind]
    assert lines[at].count(old) == 1
    lines[at] = lines[at].replace(old, new)
    path.write_bytes(b"".join(lines))


def test_segment_truncated_mid_line_is_a_located_error(tmp_path, capsys):
    directory = two_segment_store(tmp_path)
    path = directory / "seg-000001.jsonl"
    path.write_bytes(path.read_bytes()[: block_offset(directory, "tt") + 9])
    # The ``re`` block ends before the cut: a lookup that needs no more
    # than it still answers.
    assert_reads_fail(
        directory, capsys, "seg-000001.jsonl", block="tt",
        reads=("events", "source_of", "slice"),
    )


@pytest.mark.parametrize(
    "flipped", [b"}", b"\xc3"], ids=["unbalanced-brace", "non-ascii"]
)
def test_flipped_byte_is_a_located_error(tmp_path, capsys, flipped):
    directory = two_segment_store(tmp_path)
    path = directory / "seg-000001.jsonl"
    data = bytearray(path.read_bytes())
    data[5:6] = flipped  # in the ``re`` block, which comes first
    path.write_bytes(bytes(data))
    assert_reads_fail(
        directory, capsys, "seg-000001.jsonl", block="re",
        reads=("events", "edges_to", "slice"),
    )


def test_swapped_segment_files_are_refused_not_sliced(tmp_path, capsys):
    directory = two_segment_store(tmp_path)
    one = directory / "seg-000001.jsonl"
    two = directory / "seg-000002.jsonl"
    first, second = one.read_bytes(), two.read_bytes()
    one.write_bytes(second)
    two.write_bytes(first)
    with pytest.raises(StoreCorruptionError):
        ForensicStore.open(str(directory)).edges_to("n:1", 13)
    two.write_bytes(second)  # the second segment is itself again
    assert_reads_fail(directory, capsys, "seg-000001.jsonl")
    # Even a file of the right shape is refused: every block names the
    # segment it was written for.
    one.write_bytes(first.replace(b'"seg":1', b'"seg":2'))
    assert_reads_fail(directory, capsys, "seg-000001.jsonl")
    error = pytest.raises(
        StoreCorruptionError, ForensicStore.open(str(directory)).events
    ).value
    assert "not the re block of segment 1" in str(error)


def test_manifest_of_another_store_is_refused_not_sliced(tmp_path, capsys):
    directory = two_segment_store(tmp_path)
    other = two_segment_store(tmp_path, name="other", rule="a-longer-rule-name")
    (directory / "manifest.json").write_bytes(
        (other / "manifest.json").read_bytes()
    )
    # No block is where this manifest says it is: nothing is answered.
    assert_reads_fail(directory, capsys, "seg-000001.jsonl", intact=False)


def test_stale_column_entry_is_caught_on_the_row_it_describes(tmp_path, capsys):
    """A dictionary code that points outside the block's dictionary: the
    ``re`` block is refused, by name, before any row of it is used."""
    directory = two_segment_store(tmp_path)
    rewrite_block(directory, "re", b'"n":[0,0]', b'"n":[0,7]')
    assert_reads_fail(
        directory, capsys, "seg-000001.jsonl", block="re",
        reads=("events", "edges_to", "slice"),
    )
    error = pytest.raises(
        StoreCorruptionError, ForensicStore.open(str(directory)).events
    ).value
    assert "column n holds a code outside its dictionary of 2" in str(error)


def test_column_shorter_than_its_block_is_refused(tmp_path, capsys):
    directory = two_segment_store(tmp_path)
    rewrite_block(directory, "tt", b'"i":[1,2,3]', b'"i":[1,2]  ')
    assert_reads_fail(
        directory, capsys, "seg-000001.jsonl", block="tt",
        reads=("events", "source_of", "slice"),
    )
    error = pytest.raises(
        StoreCorruptionError, ForensicStore.open(str(directory)).events
    ).value
    assert "column i is not one entry for each of 3 rows" in str(error)


@pytest.mark.parametrize("name", ["seg-000001.jsonl", "manifest.json"])
def test_unreadable_segment_or_manifest_is_a_typed_error(tmp_path, capsys, name):
    directory = two_segment_store(tmp_path)
    path = directory / name
    if name == "manifest.json":
        path.write_bytes(path.read_bytes()[:40])
        with pytest.raises(StoreCorruptionError) as caught:
            ForensicStore.open(str(directory))
        assert caught.value.path.endswith(name)
        assert run_cli("store", "query", str(directory)) == 1
        assert name in capsys.readouterr().err
    else:
        os.remove(path)
        assert_reads_fail(directory, capsys, name)


# ----------------------------------------------------------------------
# Writers that die, and stores this build did not write


def test_killed_manifest_write_leaves_the_previous_manifest(tmp_path, monkeypatch):
    """The manifest is replaced in one step: a writer that dies between
    writing the new one and moving it in leaves every earlier segment
    answering."""
    directory = tmp_path / "s"
    store = ForensicStore(SC(directory=str(directory), segment_events=4))
    edges = [
        fmt.rule_exec_record("n:1", "r", i, i + 1, i / 10, i / 10, True)
        for i in range(8)
    ]
    feed_all(store, edges[:4])
    assert store.segments_written == 1

    def die(src, dst):
        raise OSError("killed before the move")

    monkeypatch.setattr(os, "replace", die)
    with pytest.raises(OSError, match="killed"):
        feed_all(store, edges[4:])
    monkeypatch.undo()
    survivor = ForensicStore.open(str(directory))
    assert survivor.segments_written == 1
    assert survivor.events() == edges[:4]
    assert survivor.edges_to("n:1", 2) == [edges[1]]


def test_another_format_version_is_named_not_misread(tmp_path, capsys):
    directory = two_segment_store(tmp_path)
    path = directory / "manifest.json"
    manifest = json.loads(path.read_text())
    v1 = {"version": 1, "segments": [{"file": "seg-000001.jsonl", "index": "x"}]}
    for version, text in ((1, fmt.encode(v1)), (3, fmt.encode({**manifest, "version": 3}))):
        path.write_text(text)
        with pytest.raises(ReproError) as caught:
            ForensicStore.open(str(directory))
        assert not isinstance(caught.value, StoreCorruptionError)
        assert f"store format version {version} is not supported" in str(caught.value)
        assert run_cli("store", "info", str(directory)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            f"error: store format version {version} is not supported"
        )
        assert captured.err.count("\n") == 1


# ----------------------------------------------------------------------
# A limit that is not a count


def test_negative_limit_is_an_error_not_a_shorter_answer(tmp_path, capsys):
    directory = str(two_segment_store(tmp_path))
    store = ForensicStore.open(directory)
    assert len(store.events()) == 12
    for limit in (-1, -3):
        # Cutting ``[:limit]`` would answer with the last records missing.
        with pytest.raises(ReproError, match=f"limit must be >= 0: {limit}"):
            store.events(limit=limit)
        with pytest.raises(ReproError):
            store.iter_events(limit=limit)  # at the call, not the first next()
    assert run_cli("store", "query", directory, "--limit", "-1") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: limit must be >= 0: -1\n"
    assert run_cli("store", "query", directory, "--limit", "3") == 0
    assert len(capsys.readouterr().out.splitlines()) == 3


def test_zero_limit_opens_nothing(tmp_path):
    store = ForensicStore.open(str(two_segment_store(tmp_path)))
    assert store.events(limit=0) == []
    assert not any(segment._held for segment in store._segments)
