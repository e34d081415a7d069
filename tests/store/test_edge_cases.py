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

And one way disks do: a segment truncated mid-line, a flipped byte, a
sidecar that belongs to another segment.  Every read path must answer
with a :class:`~repro.errors.StoreCorruptionError` naming the file, row
and byte offset — never a bare ``JSONDecodeError``, never a slice built
from the wrong rows.
"""

from __future__ import annotations

import json

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


# ----------------------------------------------------------------------
# Replace semantics and cycles


def test_synthetic_causal_cycle_terminates(tmp_path):
    store = ForensicStore(SC(directory=str(tmp_path / "s")))
    store._append(
        fmt.tuple_ident_record("n:1", 1, "n:1", 1, "n:1", 0.1, None)
    )
    store._append(
        fmt.tuple_ident_record("n:1", 2, "n:1", 2, "n:1", 0.2, None)
    )
    # ping(1) -> pong(2) -> ping(1): a ruleExec cycle.
    store._append(fmt.rule_exec_record("n:1", "p1", 1, 2, 0.1, 0.2, True))
    store._append(fmt.rule_exec_record("n:1", "p2", 2, 1, 0.2, 0.3, True))
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
    store._append(fmt.rule_exec_record("n:1", "r", 1, 2, 0.1, 0.2, True))
    store._append(fmt.rule_exec_record("n:1", "r", 1, 2, 5.0, 5.1, True))
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


def two_segment_store(tmp_path):
    """A closed two-segment store of plain records (chains 1 -> 2 -> 3
    on ``n:1`` in the first segment, 11 -> 12 -> 13 in the second) and
    the directory it lives in."""
    directory = tmp_path / "s"
    store = ForensicStore(
        SC(directory=str(directory), segment_events=6, compress=False)
    )
    for base, t in ((1, 0.0), (11, 1.0)):
        for i in range(3):
            store._append(
                fmt.tuple_ident_record(
                    "n:1", base + i, "n:1", base + i, "n:1", t + i / 10,
                    {"rel": "step", "v": ["n:1", base + i]},
                )
            )
        for i in range(2):
            store._append(
                fmt.rule_exec_record(
                    "n:1", "r", base + i, base + i + 1,
                    t + i / 10, t + (i + 1) / 10, True,
                )
            )
        store._append(
            fmt.tuple_log_record("n:1", base, t + 0.3, "step", "step(...)")
        )
    store.close()
    assert store.segments_written == 2
    return directory


def read_paths(directory):
    """Each public way of reading segment 1 of ``two_segment_store``,
    by name, each from a fresh open so nothing is served from memory.
    The slice of tid 3 walks edges 2 -> 3 and 1 -> 2 and the identity
    of tid 1; ``source_of`` reads only the identity row it is asked for."""
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
    directory, capsys, file, row=None,
    reads=("events", "edges_to", "source_of", "slice"),
):
    paths = read_paths(directory)
    for name in reads:
        with pytest.raises(StoreCorruptionError) as caught:
            paths[name]()
        error = caught.value
        assert error.path.endswith(file), (name, error)
        assert file in str(error)
        if row is not None:
            assert error.row == row, (name, error)
            assert f"row {row} at byte {error.offset}" in str(error)
        if name in CLI:
            assert run_cli(*CLI[name](str(directory))) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: corrupt forensic store")
            assert file in captured.err and "Traceback" not in captured.err
    # What the damage does not reach still answers.
    for name in set(paths) - set(reads):
        paths[name]()


def sidecar_offsets(directory):
    sidecar = json.loads((directory / "seg-000001.idx.json").read_text())
    return sidecar["columns"]["off"]


def test_segment_truncated_mid_line_is_a_located_error(tmp_path, capsys):
    directory = two_segment_store(tmp_path)
    path = directory / "seg-000001.jsonl"
    offsets = sidecar_offsets(directory)
    path.write_bytes(path.read_bytes()[: offsets[4] + 9])
    assert_reads_fail(directory, capsys, "seg-000001.jsonl", row=4)
    error = pytest.raises(
        StoreCorruptionError, ForensicStore.open(str(directory)).events
    ).value
    assert error.offset == offsets[4]
    # The undamaged segment still answers.
    assert ForensicStore.open(str(directory)).edges_to("n:1", 13)


@pytest.mark.parametrize(
    "flipped", [b"}", b"\xc3"], ids=["unbalanced-brace", "non-ascii"]
)
def test_flipped_byte_is_a_located_error(tmp_path, capsys, flipped):
    directory = two_segment_store(tmp_path)
    path = directory / "seg-000001.jsonl"
    offsets = sidecar_offsets(directory)
    data = bytearray(path.read_bytes())
    data[offsets[4] + 5 : offsets[4] + 6] = flipped  # in the 2 -> 3 edge
    path.write_bytes(bytes(data))
    # A byte no ASCII text can hold fails the file; a byte that only
    # breaks one line's JSON fails the reads that return that line.
    reads = ("events", "edges_to", "slice") + (
        ("source_of",) if flipped == b"\xc3" else ()
    )
    assert_reads_fail(directory, capsys, "seg-000001.jsonl", row=4, reads=reads)


def test_swapped_sidecars_are_refused_not_sliced(tmp_path, capsys):
    directory = two_segment_store(tmp_path)
    one = directory / "seg-000001.idx.json"
    two = directory / "seg-000002.idx.json"
    first, second = one.read_bytes(), two.read_bytes()
    one.write_bytes(second)
    two.write_bytes(first)
    assert_reads_fail(directory, capsys, "seg-000001.idx.json")


def test_stale_column_entry_is_caught_on_the_row_it_describes(tmp_path, capsys):
    """A sidecar with the right summary but two ``tid`` entries
    exchanged: the index would answer a slice of tid 3 with the 1 -> 2
    edge."""
    directory = two_segment_store(tmp_path)
    path = directory / "seg-000001.idx.json"
    sidecar = json.loads(path.read_text())
    tids = sidecar["columns"]["tid"]
    assert (tids[3], tids[4]) == (2, 3)
    tids[3], tids[4] = 3, 2
    path.write_text(fmt.encode(sidecar))
    assert_reads_fail(
        directory, capsys, "seg-000001.jsonl", row=3,
        reads=("events", "edges_to", "slice"),
    )


@pytest.mark.parametrize("name", ["seg-000001.idx.json", "manifest.json"])
def test_unreadable_sidecar_or_manifest_is_a_typed_error(tmp_path, capsys, name):
    directory = two_segment_store(tmp_path)
    path = directory / name
    path.write_bytes(path.read_bytes()[:40])
    assert_reads_fail(directory, capsys, name)


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
    assert all(
        reader._columns is None and reader._text is None
        for reader in store._segments
    )
