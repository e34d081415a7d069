"""Performance guard tier: fail when the runtime hot path regresses.

A regression tripwire, not a benchmark: the numbers people quote come
from ``benchmarks/`` (``benchmarks/e2e`` end to end, the paper-figure
benchmarks into ``benchmarks/results/*.txt``).  No guard here compares
a wall-clock reading with a number measured somewhere else: a few
hundred firings take a few milliseconds, and a pinned ops/s from
another machine says more about the machine than about the code.

One guard is a *ratio* of two timings taken in the same process:
inserting into a full bounded table must cost the same whatever its
capacity (the introspection rings are full for almost all of a long
run, and a victim search that scans the ring makes every insert
O(capacity)).  Each side is the best of :data:`ROUNDS` runs: scheduler
noise only ever makes a run *slower*, so the fastest run is the
least-contaminated estimate.

The rest are *counts* with no clock at all: an expiry pass may compare
only about as many deadlines with the clock as it removes rows (due
rows come off the eviction order; scanning the table for them made
every pass cost the whole table), a cold backward slice
may open only a few of the store's segments and parse only a sliver of
its bytes (summaries prune on the ids a lookup asks for, and a lookup
parses only the blocks it needs; reading every touched segment whole is
what made a slice cost more than the run that wrote the history), a
segment cut may encode once per block and once for the manifest (one
encode per record was the largest cost of capture), capturing an event
may make only so many Python-level calls inside ``repro/store``, a
scan may encode nothing at all (events are ordered by time and capture
sequence, both stored), ``events(limit=100)`` may open only the
head of the store and allocate a fraction of what an unlimited scan
does (scans stream in time order; collecting every candidate and
sorting made a small question cost the whole history), a finished scan
may leave no parsed block behind in the segments, a strand firing
may make only so many Python-level calls per row its joins probe (the
strand is one generated function; walking the plan per row costs
several calls for each row and each derivation) and per tuple it
derives (the pump hands a head tuple straight to delivery; a wrapper
object and a frame per routing hop cost as much as deriving it), a
same-key replace that leaves the indexed columns alone may delete
nothing from an index bucket, and a whole firing — timer or delivery,
pump, strand, table insert, routing — may make only so many calls on
the telemetry workload of ``tests/obs/test_no_heisenberg.py`` (telemetry
off and on, and traced and logged) and on the Figure-4
periodic-rule workload, with telemetry on the flight recorder may gain
no record per firing or per delivery, and a message of an 8-node
monitoring fan-in — the sender's firing to the collector's insert —
may make only so many calls (a message is the receiver-ready tuple;
marshaling it, or a frame per delivery hop, costs as much as the rest
of the hop) (``cProfile``'s call count is the same on every machine and
every CPython from 3.10 to 3.12).
"""

from __future__ import annotations

import cProfile
import pstats
import random
import time
import tracemalloc
from collections import Counter

import pytest

from repro import codec
from repro.core.system import System
from repro.overlog.builtins import EvalContext
from repro.overlog.program import Program
from repro.overlog.types import INFINITY
from repro.runtime.elements import JoinElement
from repro.runtime.planner import Planner
from repro.runtime.store import TableStore
from repro.runtime.table import Ring, Table, TableIndex
from repro.runtime.work import WorkModel
from repro.runtime.tuples import Tuple
from repro.store import ForensicStore, StoreConfig, StoreProvider, backward_slice
from repro.store import format as fmt
from repro.store.segment import Segment
from tests.store.feeding import feed_all
from tests.obs.test_no_heisenberg import WORKLOAD as OBS_WORKLOAD

ROUNDS = 3

FIG4_RULES = 100
FIG4_WINDOW = 30.0


def best_of(measure, rounds: int = ROUNDS) -> float:
    return max(measure() for _ in range(rounds))


def fig4_program(count: int) -> str:
    return "\n".join(
        f"pr{i} result{i}@NAddr() :- periodic@NAddr(E, 1)."
        for i in range(count)
    )


def calls_per_firing(
    source: str,
    warmup: float,
    window: float,
    observability: bool = False,
    tracing: bool = False,
    logging: bool = False,
) -> float:
    """Python-level calls (``cProfile``'s total) per rule firing over
    ``window`` virtual seconds of one node running ``source``."""
    system = System(seed=5, observability=observability)
    node = system.add_node("n:1", tracing=tracing, logging=logging)
    node.install_source(source, name="workload")
    system.run_for(warmup)
    before = node.rule_executions
    profile = cProfile.Profile()
    profile.enable()
    system.run_for(window)
    profile.disable()
    firings = node.rule_executions - before
    assert firings >= 200, "workload stopped firing: the guard is vacuous"
    return pstats.Stats(profile).total_calls / firings


def assert_under(calls: float, ceiling: float, label: str) -> None:
    assert calls <= ceiling, (
        f"{label}: {calls:.1f} Python-level calls per firing, ceiling "
        f"{ceiling:.0f}: something new runs on every firing"
    )


#: Measured 32.4 with telemetry off and 35.4 on, on the tick kernel (the
#: strand adds the firing's charged work to its own distribution:
#: ``observe``, ``bucket_index``, ``frexp``); ceilings leave ~15 %.  With a
#: ``rule_exec`` span, its attrs dict in the flight recorder and two
#: label-keyed histogram observations per firing, telemetry on was 66.4.
#: With each table access reading the clock through a lambda and two
#: properties they were 36.7 and 74.7; with every head tuple wrapped in
#: an action object and walked through ``_route`` / ``store.find`` /
#: ``_enqueue_strands`` / ``_notify``, each event costing the loop a
#: peek, a pop and a clock call, and each timer a ``schedule`` and a
#: ``randrange``, 50.2 and 88.2.
OBS_CALLS_PER_FIRING = {"disabled": 38.0, "enabled": 42.0}
#: The same workload traced and logged: measured 103.1 — four hook
#: calls, about two ``ruleExec``, two ``tupleTable`` and one log row per
#: firing, each appended to its ring as values: no tuple is built, the
#: ring's write-order queue takes one array extend where a table's
#: stamp heap took a push, and each row's key is hashed for the key map
#: (100.5 while rising keys were bisected instead).  With each row a
#: ``Tuple`` inserted into a table (a stamp and a heap push per row) it
#: was 110.5; with a ``_Row`` per row, an expiry check, a stamp and a
#: notify frame per insert, a three-frame clock read, generator scans
#: over the tracer's records and a copied observer list per identity
#: row, 186.4.
TRACED_CALLS_PER_FIRING = 116.0
#: Measured 35.8 on the tick kernel (a timer event, a periodic tuple and
#: a delivered head tuple per firing; a one-node tick runs straight off
#: the heap and snaps to the grid in arithmetic); 58.2 with the hops
#: above.  Running ticks through the per-node grouping made it 51.0.
FIG4_CALLS_PER_FIRING = 44.0


@pytest.mark.parametrize("mode", ("disabled", "enabled"))
def test_obs_workload_calls_per_firing_hold(mode):
    calls = calls_per_firing(
        OBS_WORKLOAD, 20.0, 40.0, observability=(mode == "enabled")
    )
    assert_under(calls, OBS_CALLS_PER_FIRING[mode], f"telemetry {mode}")


def test_traced_logged_workload_calls_per_firing_hold():
    calls = calls_per_firing(OBS_WORKLOAD, 20.0, 40.0, tracing=True, logging=True)
    assert_under(calls, TRACED_CALLS_PER_FIRING, "traced and logged")


def test_fig4_calls_per_firing_hold():
    calls = calls_per_firing(fig4_program(FIG4_RULES), 5.0, FIG4_WINDOW)
    assert_under(calls, FIG4_CALLS_PER_FIRING, "fig4")


#: The monitoring fan-in: every node reports 8 metrics every 0.1 s to 4
#: collectors (4 of the 8 nodes) that keep the latest report per metric.
FAN_IN_SOURCE = """
materialize(dest, infinity, infinity, keys(1,2)).
materialize(rep, infinity, infinity, keys(1,2)).
r1 rep@C(N, M, T) :- periodic@N(E, 0.1), dest@N(M, C), T := f_now().
"""
#: Python-level calls per delivered message, sender's firing to the
#: collector's table insert.  Measured 75.9 on the tick kernel: the
#: message is the receiver-ready tuple, sized arithmetically, appended to
#: its ``(tick, destination)`` batch inline and handed to ``receive``
#: from the batch loop.  With a payload dict and two delivery frames per
#: message it was 93.6.
FAN_IN_CALLS_PER_MESSAGE = 88.0


def test_fan_in_calls_per_message_hold():
    system = System(seed=5)
    addresses = [f"n{i}:1" for i in range(8)]
    for address in addresses:
        system.add_node(address).install_source(FAN_IN_SOURCE, name="fanin")
    for address in addresses:
        for metric in range(8):
            system.node(address).inject(
                "dest", (address, metric, addresses[metric % 4])
            )
    system.run_for(2.0)
    before = system.network.stats.messages_delivered
    profile = cProfile.Profile()
    profile.enable()
    system.run_for(10.0)
    profile.disable()
    messages = system.network.stats.messages_delivered - before
    assert messages >= 5000, "the fan-in stopped reporting: the guard is vacuous"
    calls = pstats.Stats(profile).total_calls / messages
    assert calls <= FAN_IN_CALLS_PER_MESSAGE, (
        f"{calls:.1f} Python-level calls per delivered message, ceiling "
        f"{FAN_IN_CALLS_PER_MESSAGE}: something new runs on every fabric hop"
    )


def test_telemetry_records_nothing_per_firing_or_delivery():
    """The flight recorder holds rare events; a firing or a delivery
    adds nothing to it (a span per firing filled the 65,536-entry ring
    in seconds and was most of what telemetry cost in memory)."""
    system = System(seed=5, observability=True)
    addresses = [f"n{i}:1" for i in range(4)]
    for address in addresses:
        node = system.add_node(address)
        node.install_source(OBS_WORKLOAD, name="workload")
        node.install_source(FAN_IN_SOURCE, name="fanin")
        for metric in range(4):
            node.inject("dest", (address, metric, addresses[metric % 2]))
    system.run_for(2.0)
    recorded = system.telemetry.recorder.recorded
    firings = sum(node.rule_executions for node in system.nodes.values())
    delivered = system.network.stats.messages_delivered
    system.run_for(20.0)
    firings = sum(node.rule_executions for node in system.nodes.values()) - firings
    delivered = system.network.stats.messages_delivered - delivered
    assert firings >= 1000 and delivered >= 1000, "the guard is vacuous"
    assert system.telemetry.recorder.recorded == recorded, (
        f"{system.telemetry.recorder.recorded - recorded:,} flight-recorder "
        f"records over {firings:,} firings and {delivered:,} deliveries: "
        f"something records per firing or per delivery again"
    )


def full_table_inserts_per_second(
    capacity: int, inserts: int = 2000, kind: type = Table
) -> float:
    """Fresh-key inserts per wall second, each evicting one row, into a
    ``kind`` (a table or a ring) already holding ``capacity`` rows."""

    def once() -> float:
        clock = [0.0]
        table = kind("ring", INFINITY, capacity, [1], lambda: clock[0])
        for i in range(capacity):
            clock[0] += 0.001
            table.insert(Tuple("ring", (i, "x")))
        fresh = [Tuple("ring", (capacity + i, "x")) for i in range(inserts)]
        wall0 = time.perf_counter()
        for tup in fresh:
            clock[0] += 0.001
            table.insert(tup)
        wall = time.perf_counter() - wall0
        assert len(table) == capacity
        assert next(table.scan()).values[0] == inserts  # oldest went first
        return inserts / wall

    return best_of(once)


@pytest.mark.parametrize("kind", (Table, Ring), ids=("table", "ring"))
def test_full_ring_insert_cost_does_not_grow_with_capacity(kind):
    small = full_table_inserts_per_second(256, kind=kind)
    large = full_table_inserts_per_second(8192, kind=kind)
    assert small < 3.0 * large, (
        f"a full 8,192-row {kind.__name__} takes {large:,.0f} inserts/s "
        f"against {small:,.0f} for a full 256-row one ({small / large:.1f}x "
        f"slower): eviction cost depends on capacity"
    )


RULES = [f"rule{i}" for i in range(8)]


def ruleexec_rows(count: int, tids: list):
    """``ruleExec``-shaped rows as the tracer writes them: the rule
    names and tuple ids are held elsewhere (the program, the registry),
    the two times are new floats."""
    return (
        ("n:1", RULES[i % 8], tids[i], tids[i + 1], i * 0.01, i * 0.01 + 1e-4, True)
        for i in range(count)
    )


def tupletable_rows(count: int, tids: list):
    """``tupleTable``-shaped rows as the registry writes them: its own
    tuple id, and the sender's id for it, new."""
    return (("n:1", tids[i], "n:2", 50_000 + i, "n:1") for i in range(count))


def bytes_per_row(kind: type, shape, keys: list, count: int = 4000) -> float:
    """Traced heap growth per row held, ``count`` rows of ``shape``."""
    tids = list(range(10_000, 10_000 + count + 1))
    clock = [1.0]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        held = kind("t", 120.0, 2 * count, keys, lambda: clock[0])
        for i, values in enumerate(shape(count, tids)):
            if i % 10 == 0:
                clock[0] += 0.01  # several writes per tick
            if kind is Ring:
                held.append(values)
            else:
                held.insert(Tuple("t", values))
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(held) == count
    return grown / count


#: A ring holds a row in at most this share of a table's bytes.  Measured
#: on CPython 3.11: 0.36 for ``ruleExec`` rows (180 B against 501 B) and
#: 0.39 for ``tupleTable`` rows (142 B against 361 B).  A table keeps a
#: ``Tuple``, its values tuple, a stamp, a seq, two dict slots and a heap
#: entry per row — and, for ``ruleExec``, a four-column key tuple; a ring
#: keeps the values' pointers, three ints in an array, a queue entry and
#: two to four key-map buckets.
RING_BYTES_SHARE = 0.5


@pytest.mark.parametrize(
    "shape, keys",
    ((ruleexec_rows, [2, 3, 4, 7]), (tupletable_rows, [2])),
    ids=("ruleExec", "tupleTable"),
)
def test_ring_holds_a_row_in_half_the_bytes_of_a_table(shape, keys):
    table = bytes_per_row(Table, shape, keys)
    ring = bytes_per_row(Ring, shape, keys)
    assert ring <= RING_BYTES_SHARE * table, (
        f"a ring holds a row in {ring:.0f} B against a table's {table:.0f} B "
        f"({ring / table:.2f} of it, at most {RING_BYTES_SHARE}): something "
        f"is kept per row again"
    )


class CountedTime(float):
    """A clock reading that counts the deadlines compared against it
    (``deadline <= now`` runs ``now.__ge__``)."""

    compared = 0

    def __ge__(self, other):
        CountedTime.compared += 1
        return float(self) >= other

    def __le__(self, other):
        CountedTime.compared += 1
        return float(self) <= other


#: Deadline comparisons allowed for an expiry pass that removes 10 rows:
#: one per row due, one for the first row that is not, and slack.
#: Scanning every row for its deadline made it one per row — 9,010.
EXPIRY_COMPARISONS = 20


def test_expiry_pass_examines_only_the_rows_it_removes():
    clock = [CountedTime(0.0)]
    table = Table("t", 100.0, INFINITY, [1], lambda: clock[0])
    for i in range(10_000):
        if i % 1000 == 0:
            clock[0] = CountedTime(i / 1000)
        table.insert(Tuple("t", (i, "x")))
    # The first thousand rows share the earliest deadline; with 990 of
    # them deleted, 10 are due when the clock reaches it.
    for i in range(990):
        table.delete(Tuple("t", (i, "x")))
    clock[0] = CountedTime(100.0)
    CountedTime.compared = 0
    assert table.sweep() == 10
    assert CountedTime.compared <= EXPIRY_COMPARISONS, (
        f"{CountedTime.compared:,} deadline comparisons to expire 10 of "
        f"9,010 rows: the expiry pass walks the table instead of the "
        f"eviction order"
    )
    assert len(table) == 9000


# ----------------------------------------------------------------------
# The store: work counted at the codec and by the profiler, not timed

STORE_SEGMENTS = 16
STORE_SEGMENT_EVENTS = 4096
#: Records one chain appends (4 identities, 2 edges, 2 log entries).
CHAIN_RECORDS = 8


def chain_records(chains):
    """Two-node chains: ``start`` on ``a:1`` fires ``r1`` into ``hop``,
    shipped to ``b:1`` where ``r2`` turns it into ``alarm`` — and every
    firing also joins the one long-lived ``cfg`` tuple (tid 0 on
    ``b:1``), the precondition that must not stretch any segment's id
    span back to the start of the run."""
    for c in range(chains):
        t, a1, a2, b1, b2 = c * 0.01, 2 * c + 1, 2 * c + 2, 2 * c + 1, 2 * c + 2
        yield fmt.tuple_ident_record(
            "a:1", a1, "a:1", a1, "a:1", t, {"rel": "start", "v": ["a:1", c]}
        )
        yield fmt.tuple_ident_record(
            "a:1", a2, "a:1", a2, "b:1", t, {"rel": "hop", "v": ["b:1", c]}
        )
        yield fmt.rule_exec_record("a:1", "r1", a1, a2, t, t, True)
        yield fmt.tuple_ident_record(
            "b:1", b1, "a:1", a2, "b:1", t, {"rel": "hop", "v": ["b:1", c]}
        )
        yield fmt.tuple_log_record("b:1", 2 * c, t, "hop", f"hop(b:1, {c})")
        yield fmt.tuple_ident_record(
            "b:1", b2, "b:1", b2, "b:1", t, {"rel": "alarm", "v": ["b:1", c]}
        )
        yield fmt.rule_exec_record("b:1", "r2", b1, b2, t, t, True)
        yield fmt.rule_exec_record("b:1", "r2", 0, b2, t, t, False)


@pytest.fixture(scope="module")
def chain_store(tmp_path_factory):
    """A closed 16-segment x 4,096-event store of ``chain_records``.
    Returns the directory, the bytes in its segments and the ``(node,
    tid)`` of one alarm in the middle of the history."""
    directory = str(tmp_path_factory.mktemp("guard") / "store")
    store = ForensicStore(
        StoreConfig(directory=directory, segment_events=STORE_SEGMENT_EVENTS)
    )
    chains = STORE_SEGMENTS * STORE_SEGMENT_EVENTS // CHAIN_RECORDS
    feed_all(store, chain_records(chains))
    store.close()
    assert store.segments_written == STORE_SEGMENTS >= 8
    return directory, store.bytes_written, ("b:1", 2 * (chains // 2) + 2)


@pytest.fixture
def parsed(monkeypatch):
    """``(segment id, block kind, bytes)`` of every block parsed."""
    seen = []
    real = Segment._parse
    monkeypatch.setattr(
        Segment,
        "_parse",
        lambda self, kind, data: seen.append((self.seg_id, kind, len(data)))
        or real(self, kind, data),
    )
    return seen


def test_cold_slice_decodes_a_sliver_of_the_store(chain_store, parsed):
    directory, stored_bytes, (node, tid) = chain_store
    result = backward_slice(StoreProvider(ForensicStore.open(directory)), node, tid)
    assert [(link["r"], link["ev"]) for link in result.links] == [
        ("r1", True), ("r2", True), ("r2", False)
    ]
    assert len(result.hops) == 1 and len(result.inputs) == 2
    opened = {seg_id for seg_id, _, _ in parsed}
    assert len(opened) <= 3, (
        f"a cold slice of one chain opened {len(opened)} of "
        f"{STORE_SEGMENTS} segments: a span that covers causes reaches "
        f"back to the first segment that used the long-lived tuple"
    )
    share = sum(size for _, _, size in parsed) / stored_bytes
    assert share < 0.15, (
        f"a cold slice of one chain parsed {share:.1%} of the store's "
        f"{stored_bytes:,} bytes; a lookup needs the ``re`` and ``tt`` "
        f"blocks of the segments it touches, and a payload block per leaf"
    )
    assert len(parsed) == len(set(parsed)), "a block was parsed twice"


def test_segment_cut_encodes_once_per_block(tmp_path, monkeypatch):
    encodes = []
    real_encode = codec.dumps
    monkeypatch.setattr(
        codec, "dumps", lambda value: encodes.append(1) or real_encode(value)
    )
    store = ForensicStore(
        StoreConfig(directory=str(tmp_path / "s"), segment_events=4096)
    )
    feed_all(store, chain_records(3 * 4096 // CHAIN_RECORDS))
    assert store.segments_written == 3
    blocks = sum(len(s.summary["blocks"]) for s in store._segments)
    assert blocks == 3 * 4  # re, tt, payloads, tl
    assert len(encodes) <= blocks + 3, (
        f"{len(encodes)} encodes for 3 cuts of {blocks} blocks and 3 "
        f"manifests: something is encoded per record again"
    )


CHAIN_SOURCE = """
materialize(peer, infinity, 1, keys(1)).
materialize(seen, 10, 1000, keys(1,2,3)).
c1 tick@N(E) :- periodic@N(E, 0.05).
c2 hop@P(N, E) :- tick@N(E), peer@N(P).
c3 seen@N(Src, E) :- hop@N(Src, E).
c4 back@Src(N, E) :- seen@N(Src, E).
c5 alarm@N(P, E) :- back@N(P, E).
"""
#: Measured 1.9 (one callback per event, ``codec.encode_values`` and
#: its comprehension for a first sighting, a cut's few dozen calls spread
#: over 512 events); ~17 when every event was built as a dict,
#: re-keyed, walked for the summary and the sidecar and encoded alone.
STORE_CALLS_PER_EVENT = 4.0


def test_capture_makes_few_store_calls_per_event(tmp_path):
    """The ``forensic_chains`` workload of ``benchmarks/e2e`` in small."""
    system = System(
        seed=0, store=StoreConfig(str(tmp_path / "s"), segment_events=512)
    )
    addresses = [f"n{i}:7000" for i in range(4)]
    for i, address in enumerate(addresses):
        node = system.add_node(address, tracing=True, logging=True)
        node.install_source(CHAIN_SOURCE, name="chains")
        node.inject("peer", (address, addresses[(i + 1) % 4]))
    system.run_for(1.0)
    before = system.store.events_appended
    profile = cProfile.Profile()
    profile.enable()
    system.run_for(4.0)
    profile.disable()
    events = system.store.events_appended - before
    assert events >= 4000 and system.store.segments_written >= 8
    # The codec writes the store's values: its calls count as the
    # store's, so moving encoding out of ``repro/store`` hides nothing.
    calls = sum(
        total
        for (filename, _, _), (_, total, _, _, _) in pstats.Stats(profile).stats.items()
        if "repro/store/" in filename.replace("\\", "/")
        or filename.replace("\\", "/").endswith("repro/codec.py")
    )
    assert calls / events <= STORE_CALLS_PER_EVENT, (
        f"{calls / events:.1f} Python-level calls inside repro/store and "
        f"repro/codec.py per captured event, ceiling "
        f"{STORE_CALLS_PER_EVENT:.0f}: something new runs for every event"
    )


def test_relation_scan_encodes_nothing_it_read(chain_store, monkeypatch):
    directory, _, _ = chain_store
    store = ForensicStore.open(directory)
    encoded = []
    real_encode = codec.dumps
    monkeypatch.setattr(
        codec, "dumps", lambda record: encoded.append(record["k"]) or real_encode(record)
    )
    alarms = store.events(relation="alarm")
    one_node = store.events(node="a:1", kind=fmt.RULE_EXEC)
    # Every chain's events share one timestamp: ties everywhere, and
    # still nothing to encode — capture order breaks them.
    edges = store.events(kind=fmt.RULE_EXEC)
    head = store.events(limit=1000)
    assert not encoded, (
        f"scans encoded {len(encoded):,} records to order events whose "
        f"time and capture sequence are both stored"
    )
    monkeypatch.undo()
    chains = STORE_SEGMENTS * STORE_SEGMENT_EVENTS // CHAIN_RECORDS
    assert len(alarms) == chains  # one identity each
    assert len(edges) == 3 * chains and len(one_node) == chains
    assert len(head) == 1000
    assert Counter(edge["t"] for edge in edges).most_common(1)[0][1] == 3


def test_limited_scan_reads_the_head_of_the_store(chain_store, parsed):
    directory, _, _ = chain_store
    head = ForensicStore.open(directory).events(limit=100)
    assert len(head) == 100
    # The first segment, and the one whose start says the first hundred
    # events are complete.
    opened = {seg_id for seg_id, _, _ in parsed}
    assert len(opened) <= 2, (
        f"events(limit=100) parsed blocks of {len(opened)} segments of a "
        f"{STORE_SEGMENTS}-segment store"
    )


def traced_peak(work) -> int:
    """Peak bytes allocated while ``work()`` runs and its result lives."""
    tracemalloc.start()
    try:
        result = work()  # kept alive while the peak is read
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_scan_holds_what_it_returns_and_little_else(chain_store, parsed):
    directory, _, _ = chain_store
    limited = traced_peak(lambda: ForensicStore.open(directory).events(limit=100))
    del parsed[:]
    store = ForensicStore.open(directory)
    full = traced_peak(store.events)
    assert limited < 0.15 * full, (
        f"events(limit=100) peaked at {limited:,} traced bytes, "
        f"{limited / full:.0%} of an unlimited scan's {full:,}"
    )
    # A scan passes over each block once and keeps none of them.
    assert len(parsed) == len(set(parsed)) == 4 * STORE_SEGMENTS
    assert not any(segment._held for segment in store._segments)


# ----------------------------------------------------------------------
# Strand firing: work counted by the profiler, not timed

FANOUT = 64
JOIN_WORKLOAD = """
materialize(left, infinity, 1000, keys(1,2,3)).
materialize(right, infinity, 1000, keys(1,2,3)).
g pair@N(X, Y) :- ev@N(K), left@N(K, X), right@N(K, Y), X >= 0.
"""
#: Python-level calls (builtins included) per probed row.  The generated
#: function makes 6.3: two ``values_equal`` per row, and per derivation
#: ``Tuple`` (``tuple``, ``hash``) and ``append``.
#: Evaluating the plan element by element (a generator resume, a
#: pattern matcher, a bindings-dict copy and a nested solver call per
#: row; a closure per expression node) made 19.3.
CALLS_PER_PROBED_ROW = 7.2


def test_firing_makes_few_calls_per_probed_row():
    store = TableStore(lambda: 0.0)
    (strand,) = Planner(store).plan(Program.compile(JOIN_WORKLOAD)).strands
    for key in range(4):
        for i in range(FANOUT):
            store.get("left").insert(Tuple("left", ("n", key, i)))
            store.get("right").insert(Tuple("right", ("n", key, -i)))
    joins = [op for op in strand.ops if isinstance(op, JoinElement)]
    assert [join.uses_index for join in joins] == [True, True]
    work = WorkModel()
    ctx = EvalContext(lambda: 0.0, random.Random(0))
    profile = cProfile.Profile()
    profile.enable()
    actions = strand.fire(Tuple("ev", ("n", 1)), ctx, None, work.charge)
    profile.disable()
    rows = sum(join.probes for join in joins)
    assert rows == FANOUT + FANOUT * FANOUT
    assert len(actions) == FANOUT * FANOUT
    calls = pstats.Stats(profile).total_calls
    assert calls <= CALLS_PER_PROBED_ROW * rows, (
        f"one firing made {calls:,} calls for {rows:,} probed rows "
        f"({calls / rows:.1f} per row; ceiling {CALLS_PER_PROBED_ROW}): "
        f"something is interpreting the plan per row again"
    )


FAN_OUT = 32
FAN_WORKLOAD = f"""
materialize(dim, infinity, 256, keys(1,2)).
j2 fan@N(K, I) :- chained@N(K, E), G := K % {256 // FAN_OUT}, dim@N(I, G).
"""
#: Python-level calls per derived tuple, pump to subscriber, on a join
#: that fans one trigger out to 32 heads (``rules_single``'s ``j2``).
#: Measured 12.4: the probed row's share of the strand (6.3 above),
#: delivery (``_deliver_local``, ``estimated_size`` and its ``len``s)
#: and the subscriber.  Wrapping each head in an action and walking it
#: through ``_route`` / ``store.find`` / ``_enqueue_strands`` /
#: ``_notify`` made 22.7.
CALLS_PER_DERIVED_TUPLE = 14.3


def test_pump_makes_few_calls_per_derived_tuple():
    system = System(seed=5)
    node = system.add_node("n:1")
    node.install_source(FAN_WORKLOAD, name="fan")
    for i in range(256):
        node.inject("dim", ("n:1", i, i % (256 // FAN_OUT)))
    derived = node.collect("fan")
    node.inject("chained", ("n:1", 0, 0))  # first delivery resolves the sinks
    assert len(derived) == FAN_OUT
    profile = cProfile.Profile()
    profile.enable()
    for k in range(1, 51):
        node.inject("chained", ("n:1", k, k))
    profile.disable()
    tuples = len(derived) - FAN_OUT
    assert tuples == 50 * FAN_OUT
    calls = pstats.Stats(profile).total_calls / tuples
    assert calls <= CALLS_PER_DERIVED_TUPLE, (
        f"{calls:.1f} Python-level calls per derived tuple, ceiling "
        f"{CALLS_PER_DERIVED_TUPLE}: a head tuple crosses more than "
        f"pump -> delivery -> subscriber again"
    )


def test_replace_with_unchanged_indexed_columns_deletes_from_no_bucket(monkeypatch):
    """The monitoring fan-in case: a ``status`` row is replaced under its
    key thousands of times and the column a join indexes never changes."""
    clock = [0.0]
    table = Table("status", 60, 1000, [1, 2], lambda: clock[0])
    by_kind = table.index_on([2])
    for metric in range(50):
        table.insert(Tuple("status", ("n", metric, "load", 0)))
    discards = []
    real_discard = TableIndex.discard
    monkeypatch.setattr(
        TableIndex,
        "discard",
        lambda index, key, row: discards.append(key) or real_discard(index, key, row),
    )
    buckets = {id(bucket) for bucket in by_kind._buckets.values()}
    for reading in range(1, 21):
        clock[0] += 0.2
        for metric in range(50):
            table.insert(Tuple("status", ("n", metric, "load", reading)))
    assert table.total_removals == 20 * 50  # every one a REPLACED
    assert not discards, (
        f"{len(discards):,} index discards for 1,000 replaces that changed "
        f"no indexed column: the row should keep its bucket slot"
    )
    assert {id(bucket) for bucket in by_kind._buckets.values()} == buckets
    assert [t.values[3] for t in table.probe_index(by_kind, ("load",))] == [20] * 50
    # A replace that does move the row is a discard and an add, as before.
    table.insert(Tuple("status", ("n", 0, "disk", 21)))
    assert discards == [("n", 0)]
