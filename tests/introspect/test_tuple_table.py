import pytest

from repro.introspect.tuple_table import TupleRegistry
from repro.runtime.tuples import Tuple


@pytest.fixture
def node(make_node):
    return make_node("n:1")


@pytest.fixture
def registry(node):
    return TupleRegistry(node, lifetime=50.0)


def t(name="evt", *values):
    return Tuple(name, values or ("n:1", 1))


def test_ids_are_content_addressed(registry):
    a = registry.id_of(Tuple("e", ("n:1", 1)))
    b = registry.id_of(Tuple("e", ("n:1", 1)))
    c = registry.id_of(Tuple("e", ("n:1", 2)))
    assert a == b
    assert a != c


def test_row_schema_matches_paper(node, registry):
    tup = Tuple("e", ("n:1", 5))
    tid = registry.ensure(tup, loc_spec="n:1")
    rows = node.query("tupleTable")
    assert len(rows) == 1
    assert rows[0].values == ("n:1", tid, "n:1", tid, "n:1")


def test_arrival_records_source_identity(node, registry):
    tup = Tuple("e", ("z:1", 5))
    tid = registry.on_arrival(tup, src="m:1", src_tid=42)
    assert registry.source_of(tid) == ("m:1", 42)


def test_send_records_destination(node, registry):
    tup = Tuple("e", ("z:1", 5))
    tid = registry.on_send(tup, "z:1")
    row = node.store.get("tupleTable").lookup_key((tid,))
    assert row.values[4] == "z:1"


def test_tuple_table_rows_not_self_registered(node, registry):
    registry.ensure(Tuple("e", ("n:1", 1)), loc_spec="n:1")
    for row in node.query("tupleTable"):
        assert registry.ensure(row, loc_spec="n:1") == -1
    assert len(node.query("tupleTable")) == 1


def test_refcount_discards_at_zero(node, registry):
    tup = Tuple("e", ("n:1", 1))
    tid = registry.id_of(tup)
    registry.incref(tid)
    registry.incref(tid)
    registry.decref(tid)
    assert registry.lookup(tid) is not None
    registry.decref(tid)
    assert registry.lookup(tid) is None
    assert node.store.get("tupleTable").lookup_key((tid,)) is None


def test_ttl_expiry_drops_memo(sim, node, registry):
    tup = Tuple("e", ("n:1", 1))
    tid = registry.id_of(tup)
    sim.run_for(60.0)  # beyond the 50 s lifetime; sweeper runs each 1 s
    assert registry.lookup(tid) is None
    assert registry.retained() == 0


def test_id_reused_after_discard_gets_fresh_identity(registry):
    tup = Tuple("e", ("n:1", 1))
    first = registry.id_of(tup)
    registry.incref(first)
    registry.decref(first)
    second = registry.id_of(tup)
    assert second != first
    assert registry.lookup(second) == tup


def test_arrival_with_repeated_mid_is_ignored(node, registry):
    """A retransmitted / fabric-duplicated message (same src + wire mid)
    must not re-write the tupleTable row: a re-write replaces the row
    and re-fires its observers, double-counting in the refcount path."""
    removed = []
    registry._table.on_remove.append(
        lambda row, reason: removed.append(row)
    )
    tup = Tuple("e", ("z:1", 5))
    tid = registry.on_arrival(tup, src="m:1", src_tid=42, mid=7)
    replaced_by_first = len(removed)
    again = registry.on_arrival(tup, src="m:1", src_tid=42, mid=7)
    assert again == tid
    assert registry.duplicates_ignored == 1
    assert len(removed) == replaced_by_first  # no row re-write
    assert registry.source_of(tid) == ("m:1", 42)


def test_arrival_with_fresh_mid_counts_as_new_message(node, registry):
    tup = Tuple("e", ("z:1", 5))
    tid = registry.on_arrival(tup, src="m:1", src_tid=42, mid=7)
    assert registry.on_arrival(tup, src="m:1", src_tid=43, mid=8) == tid
    assert registry.duplicates_ignored == 0  # distinct send, same content


def test_arrival_without_mid_skips_dedup(node, registry):
    tup = Tuple("e", ("z:1", 5))
    registry.on_arrival(tup, src="m:1", src_tid=42)
    registry.on_arrival(tup, src="m:1", src_tid=42)
    assert registry.duplicates_ignored == 0


def test_seen_message_ids_are_forgotten_with_their_rows(sim, node, registry):
    """The dedup set lives beside a ring bounded by ``lifetime``: it may
    hold the arrivals of one lifetime, not of the node's whole life."""
    rate, lifetimes = 4, 10  # arrivals per sim-second; 50 s lifetime
    peak = 0
    for i in range(int(50.0 * lifetimes * rate)):
        sim.run_for(1.0 / rate)
        registry.on_arrival(
            Tuple("e", ("n:1", i % 7)), src="m:1", src_tid=i, mid=i
        )
        peak = max(peak, len(registry._seen_mids))
    assert peak <= 50.0 * rate + 1, (
        f"{peak} message ids held after {lifetimes} lifetimes of "
        f"{rate} arrivals/s: the dedup set is never pruned"
    )
    # Inside the lifetime a retransmission is still recognised: same
    # tid, no row re-written, and it is counted.
    tup = Tuple("e", ("n:1", "fresh"))
    tid = registry.on_arrival(tup, src="m:1", src_tid=9001, mid=9001)
    rewrites = []  # a re-write of the same row is a refresh, not a change
    registry._table.on_insert.append(lambda row, outcome: rewrites.append(row))
    registry._table.on_refresh.append(lambda row, expires: rewrites.append(row))
    sim.run_for(49.0)
    assert registry.on_arrival(tup, src="m:1", src_tid=9001, mid=9001) == tid
    assert registry.duplicates_ignored == 1
    assert not [row for row in rewrites if row.values[1] == tid]
    # Once its row has expired the id is forgotten; the late copy is a
    # new arrival (there is no row left to double-write).
    sim.run_for(2.0)
    assert registry.lookup(tid) is None
    registry.on_arrival(tup, src="m:1", src_tid=9001, mid=9001)
    assert registry.duplicates_ignored == 1


def test_wire_duplicates_do_not_double_register():
    """End to end over a duplicating UDP fabric: the registry accounts
    each sent message once, however many copies the fabric delivers."""
    from repro.core.system import System

    system = System(seed=9, duplicate_rate=0.45)
    a = system.add_node("a", tracing=True)
    b = system.add_node("b", tracing=True)
    source = """
    materialize(sink, 100, 100, keys(1,2)).
    f1 sink@B(X) :- src@A(B, X).
    """
    a.install_source(source)
    b.install_source(source)
    for i in range(40):
        a.inject("src", ("a", "b", i))
    system.run_for(10.0)
    assert system.network.stats.messages_duplicated > 0
    assert b.registry.duplicates_ignored > 0
    assert len(b.query("sink")) == 40
