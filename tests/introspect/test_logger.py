import pytest

from repro.introspect.logger import EventLogger


@pytest.fixture
def node(make_node):
    node = make_node("n:1")
    node.install_source("materialize(t, 5, 3, keys(1,2)).")
    return node


def test_tuple_log_records_deliveries(node):
    EventLogger(node)
    node.inject("someEvent", ("n:1", 42))
    rows = node.query("tupleLog")
    assert len(rows) == 1
    assert rows[0].values[3] == "someEvent"
    assert "42" in rows[0].values[4]


def test_table_log_records_inserts(node):
    EventLogger(node)
    node.inject("t", ("n:1", "k"))
    ops = [(r.values[3], r.values[4]) for r in node.query("tableLog")]
    assert ("t", "new") in ops


def test_table_log_records_expiry(sim, node):
    EventLogger(node)
    node.inject("t", ("n:1", "k"))
    sim.run_for(10.0)  # t has a 5 s lifetime; sweeper runs every second
    ops = [r.values[4] for r in node.query("tableLog")]
    assert "expired" in ops


def test_table_log_records_eviction(node):
    EventLogger(node)
    for i in range(4):  # size bound is 3
        node.inject("t", ("n:1", f"k{i}"))
    ops = [r.values[4] for r in node.query("tableLog")]
    assert "evicted" in ops


def test_tables_created_after_logger_are_observed(node):
    EventLogger(node)
    node.install_source("materialize(late, 60, 10, keys(1,2)).")
    node.inject("late", ("n:1", "x"))
    ops = [(r.values[3], r.values[4]) for r in node.query("tableLog")]
    assert ("late", "new") in ops


def test_logs_are_queryable_from_overlog(node):
    EventLogger(node)
    node.install_source(
        'w sawInsert@N(T) :- tableLog@N(S, Time, T, "new", R).'
    )
    got = node.collect("sawInsert")
    node.inject("t", ("n:1", "k"))
    assert any(row.values[1] == "t" for row in got)


def test_log_capacity_bounded(node):
    EventLogger(node, capacity=10)
    for i in range(50):
        node.inject("evt", ("n:1", i))
    assert len(node.query("tupleLog")) <= 10


def test_internal_tables_not_logged(make_node):
    from repro.introspect import Tracer

    node = make_node("m:1")
    Tracer(node)
    EventLogger(node)
    node.install_source("r1 out@N(X) :- evt@N(X).")
    node.inject("evt", ("m:1", 1))
    names = {r.values[3] for r in node.query("tupleLog")}
    assert "ruleExec" not in names
    assert "tupleTable" not in names
