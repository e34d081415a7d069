"""Property tests for Table's secondary-index layer.

The differential harness (test_join_differential) checks whole-program
equivalence; these properties attack the index machinery directly with
randomized operation sequences, asserting the invariants every join
plan relies on:

* **Index/scan equivalence** — for any column subset and probe key,
  the index returns exactly the scan-order rows that could match (a
  superset narrowed by hashing, never missing a true match), and an
  index built after the fact (backfill) agrees with one built first.
* **TTL expiry** — expired rows vanish from scans and from every index
  at the same moment.
* **Size-bound eviction** — the bound holds after every operation and
  evicted rows leave all indexes.
* **Same-key replacement** — under random insert / replace (touching an
  indexed column or not) / refresh / delete / expiry / eviction, with
  unhashable and too-short rows, every probe of one or two secondary
  indexes equals scan-and-filter in scan order after every step, so a
  memoised probe never survives a replace.
* **Bound maintenance** — under arbitrary insert / refresh / replace /
  delete / expiry / restore sequences the table evicts exactly the rows
  a reference that scans for its victim does, in the same order.
* **Same table as before** — under random sequences of every mutation
  and read, on tables with and without a lifetime, a size bound,
  indexes and a multi-column key, the table behaves exactly like the
  ``_Row``-per-row table it replaced (``reference_table.py``): outcomes,
  observer calls and their order, scans, probes and snapshots.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.overlog.types import INFINITY
from repro.runtime.table import InsertOutcome, RemoveReason, Table
from repro.runtime.tuples import Tuple
from tests.runtime.reference_table import Table as ReferenceTable


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


ARITY = 3

values = st.one_of(
    st.integers(min_value=0, max_value=3),
    st.sampled_from(["a", "b"]),
)
rows = st.tuples(*[values] * ARITY)

ops = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), rows),
        st.tuples(st.just("delete"), rows),
        st.tuples(st.just("advance"), st.floats(min_value=0.5, max_value=6.0)),
    ),
    min_size=1,
    max_size=40,
)

positions = st.lists(
    st.integers(min_value=0, max_value=ARITY - 1),
    min_size=1,
    max_size=ARITY,
    unique=True,
)


def apply_ops(table, clock, sequence):
    for op, arg in sequence:
        if op == "insert":
            table.insert(Tuple("t", arg))
        elif op == "delete":
            table.delete(Tuple("t", arg))
        else:
            clock.t += arg


def make_table(clock, lifetime=INFINITY, max_size=INFINITY, keys=(1, 2)):
    return Table("t", lifetime, max_size, list(keys), clock)


@settings(max_examples=100, deadline=None)
@given(sequence=ops, pos=positions, probe=rows)
def test_index_agrees_with_scan(sequence, pos, probe):
    clock = FakeClock()
    table = make_table(clock, lifetime=8.0, max_size=5)
    index = table.index_on(pos)
    apply_ops(table, clock, sequence)

    key = tuple(probe[p] for p in sorted(set(pos)))
    candidates = table.probe_index(index, key)
    scanned = list(table.scan())

    def matches(tup):
        return tuple(tup.values[p] for p in sorted(set(pos))) == key

    # Never miss a true match, never invent a row, preserve scan order.
    assert [t for t in candidates if matches(t)] == [
        t for t in scanned if matches(t)
    ]
    scan_ids = [id(t) for t in scanned]
    cand_ids = [id(t) for t in candidates]
    assert all(i in scan_ids for i in cand_ids)
    assert cand_ids == sorted(cand_ids, key=scan_ids.index)


@settings(max_examples=100, deadline=None)
@given(sequence=ops, pos=positions, probe=rows)
def test_backfilled_index_equals_index_built_first(sequence, pos, probe):
    clock_a, clock_b = FakeClock(), FakeClock()
    before = make_table(clock_a, lifetime=8.0, max_size=5)
    index_before = before.index_on(pos)
    apply_ops(before, clock_a, sequence)

    after = make_table(clock_b, lifetime=8.0, max_size=5)
    apply_ops(after, clock_b, sequence)
    index_after = after.index_on(pos)  # backfilled from live rows

    key = tuple(probe[p] for p in sorted(set(pos)))
    assert [t.values for t in before.probe_index(index_before, key)] == [
        t.values for t in after.probe_index(index_after, key)
    ]


@settings(max_examples=100, deadline=None)
@given(sequence=ops, pos=positions)
def test_ttl_expiry_clears_scan_and_indexes_together(sequence, pos):
    clock = FakeClock()
    table = make_table(clock, lifetime=5.0)
    index = table.index_on(pos)
    apply_ops(table, clock, sequence)

    # Jump past every possible deadline: nothing may survive anywhere.
    clock.t += 5.0 + 1e-9
    assert list(table.scan()) == []
    assert len(table) == 0
    assert len(index) == 0
    for probe in [(0,), (0, 0), (0, 0, 0), ("a",), ("a", "a"), ("a", "a", "a")]:
        key = probe[: len(set(pos))]
        assert table.probe_index(index, key) == []


@settings(max_examples=100, deadline=None)
@given(sequence=ops, pos=positions, bound=st.integers(min_value=1, max_value=4))
def test_size_bound_holds_and_indexes_track_evictions(sequence, pos, bound):
    clock = FakeClock()
    table = make_table(clock, max_size=bound)
    index = table.index_on(pos)
    for op, arg in sequence:
        if op == "insert":
            table.insert(Tuple("t", arg))
        elif op == "delete":
            table.delete(Tuple("t", arg))
        else:
            clock.t += arg
        assert len(table) <= bound
        # The index never holds more rows than the table it mirrors.
        assert len(index) <= len(table)

    live = {id(t) for t in table.scan()}
    for tup in table.scan():
        key = tuple(tup.values[p] for p in sorted(set(pos)))
        hits = {id(t) for t in table.probe_index(index, key)}
        assert id(tup) in hits
        assert hits <= live


@settings(max_examples=100, deadline=None)
@given(
    ids=st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=8),
    probe=st.integers(min_value=0, max_value=7),
    as_node_id=st.booleans(),
)
def test_node_id_and_int_probe_keys_are_interchangeable(ids, probe, as_node_id):
    # NodeID equals ints and hashes as its value, so an index keyed on a
    # NodeID column must answer probes made with plain ints (and vice
    # versa) — exactly what happens when a rule joins a wire-delivered
    # NodeID against a locally computed int.
    from repro.overlog.types import NodeID

    clock = FakeClock()
    table = make_table(clock, keys=(1, 2))
    index = table.index_on([1])
    for i, n in enumerate(ids):
        table.insert(Tuple("t", (i, NodeID(n), "x")))

    key = (NodeID(probe),) if as_node_id else (probe,)
    hits = table.probe_index(index, key)
    expected = [t for t in table.scan() if t.values[1] == probe]
    assert [t.values for t in hits if t.values[1] == probe] == [
        t.values for t in expected
    ]
    assert len(expected) == ids.count(probe)


# ----------------------------------------------------------------------
# Same-key replacement: TableIndex.replace keeps a row's bucket slot when
# its indexed columns did not change.  Probes must not be able to tell.


class Loose:
    """A value that stops hashing once it is inside a tuple — the only
    way a row reaches ``TableIndex._loose``, since ``Tuple`` hashes its
    fields when it is built."""

    armed = False

    def __init__(self, v):
        self.v = v

    def __eq__(self, other):
        return isinstance(other, Loose) and other.v == self.v

    def __hash__(self):
        if Loose.armed:
            raise TypeError("unhashable: Loose")
        return hash(("loose", self.v))

    def __repr__(self):
        return f"Loose({self.v})"


WIDE = 4
key_values = st.integers(min_value=0, max_value=2)
payload_values = st.one_of(
    st.integers(min_value=0, max_value=1),
    st.builds(Loose, st.integers(min_value=0, max_value=1)),
)
wide_rows = st.integers(min_value=2, max_value=WIDE).flatmap(
    lambda n: st.tuples(key_values, key_values, *[payload_values] * (n - 2))
)
pick = st.integers(min_value=0, max_value=7)
replace_ops = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), wide_rows),
        # Re-insert live row `pick` with column `col` set to `value`:
        # a refresh when nothing changes, else a same-key replace that
        # does or does not touch an indexed column.
        st.tuples(
            st.just("rewrite"),
            st.tuples(pick, st.integers(min_value=2, max_value=WIDE - 1), payload_values),
        ),
        st.tuples(st.just("delete"), pick),
        st.tuples(st.just("advance"), st.floats(min_value=0.5, max_value=6.0)),
    ),
    min_size=1,
    max_size=30,
)
index_sets = st.sampled_from([[[2]], [[3]], [[2], [3]], [[2], [2, 3]]])
PROBE_VALUES = (0, 1, Loose(0))


def hashable(values):
    try:
        hash(values)
    except TypeError:
        return False
    return True


def scan_and_filter(table, index, key):
    """What ``probe_index`` must return, from a scan: the rows long
    enough for the index whose indexed columns equal ``key`` — or cannot
    be hashed, or ``key`` cannot (the caller unifies those itself)."""
    out = []
    for tup in table.scan():
        if len(tup.values) <= index.positions[-1]:
            continue
        projected = tuple(tup.values[p] for p in index.positions)
        if not hashable(key) or not hashable(projected) or projected == key:
            out.append(tup)
    return out


def probe_keys(index):
    keys = [()]
    for _ in index.positions:
        keys = [key + (v,) for key in keys for v in PROBE_VALUES]
    return keys


def assert_probes_equal_scans(table, indexes, when):
    for index in indexes:
        for key in probe_keys(index):
            got = table.probe_index(index, key)
            want = scan_and_filter(table, index, key)
            assert [id(t) for t in got] == [id(t) for t in want], (
                f"{when}: index {index.positions} probed with {key}: "
                f"{got} != {want}"
            )


@settings(max_examples=300, deadline=None)
@given(sequence=replace_ops, columns=index_sets)
def test_probes_equal_scan_and_filter_through_replacements(sequence, columns):
    clock = FakeClock()
    table = make_table(clock, lifetime=8.0, max_size=4)
    indexes = [table.index_on(cols) for cols in columns]
    Loose.armed = True
    try:
        for step, (op, arg) in enumerate(sequence):
            # Every probe below is memoised when the next mutation runs.
            live = list(table.scan())
            if op == "insert":
                Loose.armed = False
                tup = Tuple("t", arg)
                Loose.armed = True
                table.insert(tup)
            elif op == "rewrite" and live:
                which, col, value = arg
                old = live[which % len(live)].values
                Loose.armed = False
                tup = Tuple("t", old[:col] + (value,) + old[col + 1 :])
                Loose.armed = True
                table.insert(tup)
            elif op == "delete" and live:
                table.delete(live[arg % len(live)])
            elif op == "advance":
                clock.t += arg
            assert_probes_equal_scans(table, indexes, f"step {step} ({op})")
    finally:
        Loose.armed = False


def test_replace_keeps_the_slot_only_when_indexed_columns_are_unchanged():
    clock = FakeClock()
    table = make_table(clock)
    index = table.index_on([2])
    for k in range(3):
        table.insert(Tuple("t", (0, k, "g", k)))
    bucket = index._buckets[("g",)]
    table.insert(Tuple("t", (0, 1, "g", "new")))  # indexed column unchanged
    assert list(bucket) == [(0, 0), (0, 1), (0, 2)]  # slot kept, not re-added
    assert [t.values[3] for t in table.probe_index(index, ("g",))] == [0, "new", 2]
    table.insert(Tuple("t", (0, 1, "h", "moved")))  # indexed column changed
    assert list(bucket) == [(0, 0), (0, 2)]
    assert [t.values[3] for t in table.probe_index(index, ("h",))] == ["moved"]
    assert [t.values[3] for t in table.probe_index(index, ("g",))] == [0, 2]


# ----------------------------------------------------------------------
# Bound maintenance against a reference model
#
# ``Table`` finds its eviction victim through a lazily validated heap;
# the reference below keeps the definition it must agree with — the
# least ``(inserted_at, seq)`` over every live row but the one just
# inserted — by scanning, and mirrors the rest of the table contract
# (lazy expiry, same-slot replacement, silent restore) in the plainest
# way, so any divergence in outcomes, observer streams, scan order or
# index probes is the heap's.

MODEL_TTL = 5.0


class ModelRow:
    def __init__(self, values, inserted_at, expires_at, seq):
        self.values = values
        self.inserted_at = inserted_at
        self.expires_at = expires_at
        self.seq = seq


class ModelTable:
    """Reference soft-state table keyed on columns 1-2 of a 3-tuple."""

    def __init__(self, max_size, now):
        self.max_size = max_size
        self.now = now
        self.rows = {}  # key -> ModelRow, in scan order
        self.seq = 0
        self.events = []

    def _expire(self):
        now = self.now()
        for key in [k for k, r in self.rows.items() if r.expires_at <= now]:
            self.events.append((self.rows.pop(key).values, RemoveReason.EXPIRED))

    def insert(self, values):
        self._expire()
        key, now = values[:2], self.now()
        old = self.rows.get(key)
        if old is not None and old.values == values:
            old.inserted_at, old.expires_at = now, now + MODEL_TTL
            self.events.append((values, old.expires_at))
            return InsertOutcome.REFRESHED
        self.seq += 1
        self.rows[key] = ModelRow(values, now, now + MODEL_TTL, self.seq)
        if old is not None:
            self.events.append((old.values, RemoveReason.REPLACED))
            self.events.append((values, InsertOutcome.REPLACED))
            return InsertOutcome.REPLACED
        while len(self.rows) > self.max_size:
            victim = min(
                (k for k in self.rows if k != key),
                key=lambda k: (self.rows[k].inserted_at, self.rows[k].seq),
                default=None,
            )
            if victim is None:
                break
            self.events.append((self.rows.pop(victim).values, RemoveReason.EVICTED))
        self.events.append((values, InsertOutcome.NEW))
        return InsertOutcome.NEW

    def delete(self, values):
        self._expire()
        row = self.rows.get(values[:2])
        if row is None or row.values != values:
            return False
        del self.rows[values[:2]]
        self.events.append((values, RemoveReason.DELETED))
        return True

    def delete_matching(self, pattern):
        self._expire()
        victims = [
            r.values
            for r in self.rows.values()
            if all(p is None or p == v for p, v in zip(pattern, r.values))
        ]
        for values in victims:
            del self.rows[values[:2]]
            self.events.append((values, RemoveReason.DELETED))
        return len(victims)

    def restore(self, values, expires_at, inserted_at):
        now = self.now()
        if expires_at <= now:
            return False
        self.seq += 1
        self.rows[values[:2]] = ModelRow(
            values, now if inserted_at is None else inserted_at, expires_at, self.seq
        )
        return True

    def restore_remove(self, values):
        row = self.rows.get(values[:2])
        if row is None or row.values != values:
            return False
        del self.rows[values[:2]]
        return True

    def scan(self):
        self._expire()
        return [r.values for r in self.rows.values()]


# Six keys against capacities of at most four, two payloads per key:
# overflow, identical re-insert and same-key replace are all common.
model_rows = st.tuples(
    st.integers(min_value=0, max_value=2),
    st.sampled_from(["a", "b"]),
    st.integers(min_value=0, max_value=1),
)
patterns = st.tuples(
    st.none() | st.integers(min_value=0, max_value=2),
    st.none() | st.sampled_from(["a", "b"]),
    st.none() | st.integers(min_value=0, max_value=1),
)
model_ops = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), model_rows),
        st.tuples(st.just("insert"), model_rows),
        st.tuples(st.just("delete"), model_rows),
        st.tuples(st.just("delete_matching"), patterns),
        # Several operations share each instant; 6.0 outlives every row.
        st.tuples(st.just("advance"), st.sampled_from([0.5, 1.0, 2.5, 6.0])),
        st.tuples(
            st.just("restore"),
            st.tuples(
                model_rows,
                st.sampled_from([-1.0, 0.5, 3.0, 5.0]),  # deadline - now
                st.sampled_from([None, 0.0, 1.0, 4.0]),  # now - inserted_at
            ),
        ),
        st.tuples(st.just("restore_remove"), model_rows),
    ),
    min_size=1,
    max_size=60,
)


def bookkeeping_bound(capacity):
    """The heap may hold stale stamps, but never more than this."""
    return 2 * capacity + 16


def run_against_model(sequence, capacity, observers=1):
    clock = FakeClock()
    table = make_table(clock, lifetime=MODEL_TTL, max_size=capacity)
    index = table.index_on([2])
    model = ModelTable(capacity, clock)
    streams = [[] for _ in range(observers)]
    for seen in streams:
        tap = lambda tup, what, seen=seen: seen.append((tup.values, what))
        table.on_insert.append(tap)
        table.on_remove.append(tap)
        table.on_refresh.append(tap)

    for op, arg in sequence:
        if op == "insert":
            assert table.insert(Tuple("t", arg)) is model.insert(arg)
        elif op == "delete":
            assert table.delete(Tuple("t", arg)) == model.delete(arg)
        elif op == "delete_matching":
            assert table.delete_matching(list(arg)) == model.delete_matching(arg)
        elif op == "advance":
            clock.t += arg
        elif op == "restore":
            values, remaining, age = arg
            expires_at = clock.t + remaining
            inserted_at = None if age is None else clock.t - age
            assert table.restore(
                Tuple("t", values), expires_at, inserted_at
            ) == model.restore(values, expires_at, inserted_at)
        else:
            assert table.restore_remove(Tuple("t", arg)) == model.restore_remove(arg)
        assert len(table._evict_heap or ()) <= bookkeeping_bound(capacity)
        assert all(seen == model.events for seen in streams)
        live = model.scan()
        assert [t.values for t in table.scan()] == live
        for payload in range(2):
            assert [t.values for t in table.probe_index(index, (payload,))] == [
                v for v in live if v[2] == payload
            ]
        # ... and the scans above expired the same rows in the same order.
        assert all(seen == model.events for seen in streams)
    return table, model


A0, B0, B1, C0, D0 = (0, "a", 0), (1, "a", 0), (1, "a", 1), (2, "a", 0), (0, "b", 0)


@settings(max_examples=300, deadline=None)
# A stamp superseded by a refresh must not evict the refreshed row ...
@example(
    sequence=[("insert", A0), ("insert", B0), ("insert", C0), ("advance", 1.0),
              ("insert", B0), ("insert", D0)],
    capacity=2,
    observers=1,
)
# ... nor one superseded by a same-instant replace the replacing row.
@example(
    sequence=[("insert", A0), ("insert", B0), ("insert", C0), ("insert", B1),
              ("insert", D0)],
    capacity=2,
    observers=1,
)
@given(
    sequence=model_ops,
    capacity=st.integers(min_value=0, max_value=4),
    observers=st.integers(min_value=1, max_value=2),
)
def test_bounded_table_agrees_with_scanning_model(sequence, capacity, observers):
    run_against_model(sequence, capacity, observers)


def test_refreshed_row_sorts_before_a_row_inserted_earlier_that_instant():
    # The first four inserts overflow once, so everything after goes
    # through the live heap.  A is refreshed at t=1 *after* B was first
    # inserted at t=1, yet keeps its older seq and so is evicted first.
    z, a, y, w, b, c, d, e = [(i, "a", 0) for i in range(8)]
    table, model = run_against_model(
        [
            ("insert", z), ("insert", a), ("insert", y), ("insert", w),
            ("delete", y),
            ("advance", 1.0),
            ("insert", b),
            ("insert", a),
            ("insert", c), ("insert", d), ("insert", e),
        ],
        capacity=3,
    )
    assert [v for v, why in model.events if why is RemoveReason.EVICTED] == [
        z, w, a, b
    ]


def test_stale_stamps_never_outgrow_the_bound():
    # A table that overflowed once and is then only refreshed must not
    # accumulate one stamp per refresh.
    clock = FakeClock()
    table = make_table(clock, max_size=2)
    for i in range(3):
        table.insert(Tuple("t", (i, "a", 0)))
    assert table._evict_heap is not None
    for _ in range(200):
        clock.t += 1.0
        table.insert(Tuple("t", (1, "a", 0)))
        table.insert(Tuple("t", (2, "a", 0)))
        assert len(table._evict_heap or ()) <= bookkeeping_bound(2)
    table.insert(Tuple("t", (3, "a", 0)))
    assert [t.values[0] for t in table.scan()] == [2, 3]


# ----------------------------------------------------------------------
# Against the reference table
#
# ``reference_table.Table`` is the table before a row became its tuple
# plus one shared stamp: a ``_Row`` object per row, expiry by scanning
# every row.  Both tables get the same Tuple objects, the same clock and
# the same calls in the same order; after every step their returns,
# observer streams, scans, probes and lengths must agree.  Mutations of
# the production table this property catches: a refresh that draws a
# new seq, expiry notified in heap (age) order instead of scan order, a
# replacing row that does not inherit its key's rank, a restored
# deadline treated as ``inserted_at + lifetime``, a refresh that leaves
# a restored row's own deadline in force, a restore that does not lower
# the expiry bound, eviction that does not spare the row just inserted,
# and index candidates left in bucket order.

REF_KEYS = [(1,), (1, 2)]
ref_rows = st.tuples(
    st.integers(min_value=0, max_value=3),
    st.sampled_from(["a", "b"]),
    st.integers(min_value=0, max_value=1),
)
ref_positions = st.sampled_from([[0], [1], [2], [1, 2]])
ref_ops = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), ref_rows),
        st.tuples(st.just("insert"), ref_rows),
        # Re-insert live row `pick` with its payload set: a refresh or a
        # same-key replace.
        st.tuples(st.just("rewrite"), st.tuples(pick, st.integers(0, 1))),
        st.tuples(st.just("refresh"), pick),
        st.tuples(st.just("delete"), ref_rows),
        st.tuples(st.just("delete_live"), pick),
        st.tuples(st.just("delete_matching"), patterns),
        st.tuples(st.just("advance"), st.sampled_from([0.0, 0.5, 1.0, 2.5, 6.0])),
        st.tuples(
            st.just("restore"),
            st.tuples(
                ref_rows,
                st.sampled_from([-1.0, 0.5, 3.0, 5.0, 9.0]),  # deadline - now
                st.sampled_from([None, 0.0, 1.0, 4.0]),  # now - inserted_at
            ),
        ),
        st.tuples(st.just("restore_remove"), ref_rows),
        st.tuples(st.just("restore_remove_live"), pick),
        st.tuples(st.just("snapshot"), st.none()),
        st.tuples(st.just("sweep"), st.none()),
        st.tuples(st.just("lookup"), ref_rows),
        st.tuples(st.just("index"), ref_positions),
    ),
    min_size=1,
    max_size=60,
)


def ref_probe_keys(positions):
    keys = [()]
    for p in positions:
        column = [0, 1, 2, 3] if p == 0 else ["a", "b"] if p == 1 else [0, 1]
        keys = [key + (v,) for key in keys for v in column]
    return keys


def ref_pair(lifetime, max_size, keys, observers):
    clock = FakeClock()
    tables = [
        Table("t", lifetime, max_size, list(keys), clock),
        ReferenceTable("t", lifetime, max_size, list(keys), clock),
    ]
    streams = []
    for table in tables:
        seen = []
        streams.append(seen)
        for i in range(observers):
            tap = lambda tup, what, seen=seen, i=i: seen.append((i, tup.values, what))
            table.on_insert.append(tap)
            table.on_remove.append(tap)
            table.on_refresh.append(tap)
    return clock, tables, streams


def run_against_reference(sequence, lifetime, max_size, keys, indexed, observers):
    clock, (table, ref), (seen, want) = ref_pair(lifetime, max_size, keys, observers)
    indexes = []
    if indexed is not None:
        indexes.append((table.index_on(indexed), ref.index_on(indexed)))

    def agree(a, b, what):
        assert a == b, f"{what}: {a!r} != {b!r}"
        assert seen == want, f"{what}: observers saw {seen} != {want}"

    for step, (op, arg) in enumerate(sequence):
        when = f"step {step} ({op} {arg!r})"
        live = list(ref.scan())
        if op == "insert" or (op in ("rewrite", "refresh") and live):
            if op == "rewrite":
                which, payload = arg
                values = live[which % len(live)].values[:2] + (payload,)
            elif op == "refresh":
                values = live[arg % len(live)].values
            else:
                values = arg
            tup = Tuple("t", values)
            agree(table.insert(tup), ref.insert(tup), when)
        elif op == "delete":
            tup = Tuple("t", arg)
            agree(table.delete(tup), ref.delete(tup), when)
        elif op == "delete_live" and live:
            tup = live[arg % len(live)]
            agree(table.delete(tup), ref.delete(tup), when)
        elif op == "delete_matching":
            agree(table.delete_matching(list(arg)), ref.delete_matching(list(arg)), when)
        elif op == "advance":
            clock.t += arg
        elif op == "restore":
            values, remaining, age = arg
            tup = Tuple("t", values)
            expires_at = clock.t + remaining
            inserted_at = None if age is None else clock.t - age
            agree(
                table.restore(tup, expires_at, inserted_at),
                ref.restore(tup, expires_at, inserted_at),
                when,
            )
        elif op == "restore_remove":
            tup = Tuple("t", arg)
            agree(table.restore_remove(tup), ref.restore_remove(tup), when)
        elif op == "restore_remove_live" and live:
            tup = live[arg % len(live)]
            agree(table.restore_remove(tup), ref.restore_remove(tup), when)
        elif op == "snapshot":
            agree(table.snapshot_rows(), ref.snapshot_rows(), when)
        elif op == "sweep":
            agree(table.sweep(), ref.sweep(), when)
        elif op == "lookup":
            key = tuple(arg[k - 1] for k in keys)
            agree(table.lookup_key(key), ref.lookup_key(key), when)
            agree(Tuple("t", arg) in table, Tuple("t", arg) in ref, when)
        elif op == "index":
            indexes.append((table.index_on(arg), ref.index_on(arg)))
        for index, ref_index in indexes:
            for key in ref_probe_keys(index.positions):
                got = table.probe_index(index, key)
                assert [id(t) for t in got] == [
                    id(t) for t in ref.probe_index(ref_index, key)
                ], f"{when}: probe {index.positions} {key}"
        assert [id(t) for t in table.scan()] == [id(t) for t in ref.scan()], when
        agree(len(table), len(ref), when)
        agree(
            (table.total_inserts, table.total_removals),
            (ref.total_inserts, ref.total_removals),
            when,
        )
    agree(table.snapshot_rows(), ref.snapshot_rows(), "end")
    return seen


@settings(max_examples=400, deadline=None)
# A refreshed row keeps its seq: it is evicted before B, first inserted
# earlier at the instant of the refresh ...
@example(
    sequence=[("insert", A0), ("advance", 1.0), ("insert", B0), ("refresh", 0),
              ("insert", C0)],
    lifetime=INFINITY, max_size=2, keys=(1, 2), indexed=None, observers=1,
)
# ... and a row whose indexed column changes moves to the end of its new
# bucket but keeps its place in scan order.
@example(
    sequence=[("insert", A0), ("insert", (1, "a", 1)), ("rewrite", (0, 1))],
    lifetime=INFINITY, max_size=INFINITY, keys=(1, 2), indexed=[2], observers=1,
)
@given(
    sequence=ref_ops,
    lifetime=st.sampled_from([INFINITY, 5.0]),
    max_size=st.sampled_from([INFINITY, 0, 1, 2, 4]),
    keys=st.sampled_from(REF_KEYS),
    indexed=st.sampled_from([None, [0], [2], [1, 2]]),
    observers=st.integers(min_value=0, max_value=2),
)
def test_table_behaves_like_the_reference_table(
    sequence, lifetime, max_size, keys, indexed, observers
):
    run_against_reference(sequence, lifetime, max_size, keys, indexed, observers)


def test_expiry_is_notified_in_scan_order_not_age_order():
    # b is older than a in (inserted_at, seq) order — a was refreshed —
    # yet a comes first in scan order, so a is expired (and notified)
    # first; c, replaced after both, keeps its first place's rank.
    a, b, c = (0, "a", 0), (1, "a", 0), (2, "a", 0)
    seen = run_against_reference(
        [
            ("insert", c), ("insert", a), ("advance", 1.0), ("insert", b),
            ("advance", 1.0), ("insert", a), ("insert", (2, "a", 1)),
            ("advance", 6.0), ("sweep", None),
        ],
        lifetime=5.0, max_size=INFINITY, keys=(1,), indexed=[2], observers=1,
    )
    expired = [values for _, values, what in seen if what is RemoveReason.EXPIRED]
    assert expired == [(2, "a", 1), a, b]



# ----------------------------------------------------------------------
# Ring against Table
#
# The introspection relations are :class:`Ring`s: rows kept as appended
# values, one write-order queue for both bounds, a key map only once a
# key repeats out of order.  A ring and a production table get the same
# clock and the same operations — the ones rings see: fresh ascending
# keys, REPLACED and REFRESHED writes on live keys, several writes per
# tick on the tick grid, expiry, eviction at capacity, restores with
# explicit deadlines, silent removals and resizes — and after every step
# must agree on every return, scan, probe, lookup and length, and on
# what every observer saw: tuple observers the same calls, values
# observers the same rows and outcomes (a replace is one call carrying
# the values it replaced).

RING_KEYS = [(1,), (1, 2), (2,)]
ring_payload = st.tuples(st.sampled_from(["a", "b"]), st.integers(0, 1))
ring_ops = st.lists(
    st.one_of(
        st.tuples(st.just("append"), ring_payload),
        st.tuples(st.just("append"), ring_payload),
        st.tuples(st.just("insert"), ref_rows),
        st.tuples(st.just("rewrite"), st.tuples(pick, st.integers(0, 1))),
        st.tuples(st.just("refresh"), pick),
        st.tuples(st.just("delete_live"), pick),
        st.tuples(st.just("delete"), ref_rows),
        st.tuples(st.just("delete_key"), ref_rows),
        st.tuples(st.just("delete_matching"), patterns),
        st.tuples(
            st.just("advance"),
            st.sampled_from([0.0, 0.0, 0.01, 0.01, 0.5, 1.0, 2.5, 6.0]),
        ),
        st.tuples(
            st.just("restore"),
            st.tuples(
                ref_rows,
                st.sampled_from([-1.0, 0.5, 3.0, 5.0, 9.0]),  # deadline - now
                st.sampled_from([None, 0.0, 1.0, 4.0]),  # now - inserted_at
            ),
        ),
        st.tuples(st.just("restore_live"), st.tuples(pick, st.sampled_from([0.5, 5.0]))),
        st.tuples(st.just("restore_remove"), ref_rows),
        st.tuples(st.just("restore_remove_live"), pick),
        st.tuples(st.just("lifetime"), st.sampled_from([INFINITY, 2.0, 5.0])),
        st.tuples(st.just("max_size"), st.sampled_from([INFINITY, 0, 1, 3, 6])),
        st.tuples(st.just("snapshot"), st.none()),
        st.tuples(st.just("sweep"), st.none()),
        st.tuples(st.just("index"), ref_positions),
        # Housekeeping a ring does on its own when dead slots or stale
        # queue entries pile up: forced at any step, it must not show.
        st.tuples(st.just("compact"), st.none()),
        st.tuples(st.just("requeue"), st.none()),
    ),
    min_size=1,
    max_size=80,
)


def ring_key_values(keys, values):
    return tuple(values[k - 1] for k in keys)


def run_ring_against_table(sequence, lifetime, max_size, keys, indexed, observers):
    from repro.runtime.table import Ring

    clock = FakeClock()
    table = Table("t", lifetime, max_size, list(keys), clock)
    ring = Ring("t", lifetime, max_size, list(keys), clock)
    want, seen, rows_seen = [], [], []
    for i in range(observers):
        for target, log in ((table, want), (ring, seen)):
            tap = lambda tup, what, log=log, i=i: log.append((i, tup.name, tup.values, what))
            target.on_insert.append(tap)
            target.on_remove.append(tap)
            target.on_refresh.append(tap)

    def appended(values, replaced):
        if replaced is not None:
            rows_seen.append((replaced, RemoveReason.REPLACED))
        rows_seen.append((values, InsertOutcome.REPLACED if replaced else InsertOutcome.NEW))

    ring.on_append.append(appended)
    ring.on_drop.append(lambda values, reason: rows_seen.append((values, reason)))
    rows_want = []
    table.on_insert.append(lambda tup, what: rows_want.append((tup.values, what)))
    table.on_remove.append(lambda tup, what: rows_want.append((tup.values, what)))
    indexes = []
    if indexed is not None:
        indexes.append((ring.index_on(indexed), table.index_on(indexed)))
    fresh = 10  # ascending keys above every ref_rows key

    def agree(got, expected, when):
        assert got == expected, f"{when}: {got!r} != {expected!r}"
        assert seen == want, f"{when}: tuple observers saw {seen} != {want}"
        assert rows_seen == rows_want, f"{when}: values observers {rows_seen} != {rows_want}"

    for step, (op, arg) in enumerate(sequence):
        when = f"step {step} ({op} {arg!r})"
        live = [t.values for t in table.scan()]
        if op == "append":
            fresh += 1
            values = (fresh,) + arg
            agree(ring.append(values), table.insert(Tuple("t", values)), when)
        elif op == "insert":
            tup = Tuple("t", arg)
            agree(ring.insert(tup), table.insert(tup), when)
        elif op in ("rewrite", "refresh") and live:
            if op == "rewrite":
                which, payload = arg
                values = live[which % len(live)][:2] + (payload,)
            else:
                values = live[arg % len(live)]
            agree(ring.append(values), table.insert(Tuple("t", values)), when)
        elif op == "delete_live" and live:
            tup = Tuple("t", live[arg % len(live)])
            agree(ring.delete(tup), table.delete(tup), when)
        elif op == "delete":
            tup = Tuple("t", arg)
            agree(ring.delete(tup), table.delete(tup), when)
        elif op == "delete_key":
            key = ring_key_values(keys, arg)
            row = table.lookup_key(key)
            agree(ring.delete_key(key), row is not None and table.delete(row), when)
        elif op == "delete_matching":
            agree(ring.delete_matching(list(arg)), table.delete_matching(list(arg)), when)
        elif op == "advance":
            clock.t = round(clock.t + arg, 2)
        elif op in ("restore", "restore_live"):
            if op == "restore":
                values, remaining, age = arg
            elif not live:
                continue
            else:
                values, remaining, age = live[arg[0] % len(live)], arg[1], 1.0
            tup = Tuple("t", values)
            expires_at = clock.t + remaining
            inserted_at = None if age is None else clock.t - age
            agree(
                ring.restore(tup, expires_at, inserted_at),
                table.restore(tup, expires_at, inserted_at),
                when,
            )
        elif op == "restore_remove":
            tup = Tuple("t", arg)
            agree(ring.restore_remove(tup), table.restore_remove(tup), when)
        elif op == "restore_remove_live" and live:
            tup = Tuple("t", live[arg % len(live)])
            agree(ring.restore_remove(tup), table.restore_remove(tup), when)
        elif op == "lifetime":
            ring.lifetime = table.lifetime = arg
        elif op == "max_size":
            ring.max_size = table.max_size = arg
        elif op == "snapshot":
            agree(ring.snapshot_rows(), table.snapshot_rows(), when)
        elif op == "sweep":
            agree(ring.sweep(), table.sweep(), when)
        elif op == "index":
            indexes.append((ring.index_on(arg), table.index_on(arg)))
        elif op == "compact":
            ring._compact()
        elif op == "requeue":
            ring._requeue()
        # Every read path, after every step.
        for index, table_index in indexes:
            for key in ref_probe_keys(index.positions):
                agree(
                    ring.probe_index(index, key),
                    table.probe_index(table_index, key),
                    f"{when}: probe {index.positions} {key}",
                )
        agree(list(ring.scan()), list(table.scan()), when)
        for values in [(k, s, p) for k in range(4) for s in "ab" for p in (0, 1)]:
            key = ring_key_values(keys, values)
            agree(ring.lookup_key(key), table.lookup_key(key), f"{when}: lookup {key}")
            tup = Tuple("t", values)
            agree(tup in ring, tup in table, f"{when}: contains {values}")
        for effect in range(4):
            agree(
                ring.select(0, effect),
                [t.values for t in table.scan() if t.values[0] == effect],
                f"{when}: select {effect}",
            )
        agree(len(ring), len(table), when)
        agree(ring.estimated_bytes(), table.estimated_bytes(), when)
        agree(
            (ring.total_inserts, ring.total_removals),
            (table.total_inserts, table.total_removals),
            when,
        )
        agree(
            ring.evicted,
            sum(1 for _, why in rows_want if why is RemoveReason.EVICTED),
            when,
        )
    agree(ring.snapshot_rows(), table.snapshot_rows(), "end")
    return ring, rows_want


@settings(max_examples=400, deadline=None)
# A refresh among rows written at the same instant lands by its seq,
# not at the tail: it is evicted before B ...
@example(
    sequence=[("append", ("a", 0)), ("advance", 1.0), ("append", ("a", 0)),
              ("refresh", 0), ("append", ("a", 0))],
    lifetime=INFINITY, max_size=2, keys=(1,), indexed=None, observers=1,
)
# ... a restore with an older inserted_at goes ahead of live writes, and
# a key that repeats out of order is found again through the key map.
@example(
    sequence=[("append", ("a", 0)), ("append", ("b", 1)), ("advance", 2.5),
              ("restore", ((3, "a", 0), 5.0, 4.0)), ("insert", (2, "b", 0)),
              ("max_size", 2), ("append", ("a", 1)), ("advance", 6.0)],
    lifetime=5.0, max_size=INFINITY, keys=(1,), indexed=[2], observers=2,
)
# Keys that share a hash (hash(-1) == hash(-2)) stay two rows ...
@example(
    sequence=[("insert", (-1, "a", 0)), ("append", ("a", 0)),
              ("insert", (-2, "a", 1)), ("insert", (-2, "b", 1)),
              ("delete", (-1, "a", 0)), ("insert", (-1, "b", 0))],
    lifetime=INFINITY, max_size=INFINITY, keys=(1,), indexed=None, observers=1,
)
# ... a restored deadline follows its row when the ring drops dead slots ...
@example(
    sequence=[("append", ("a", 0)), ("append", ("a", 0)), ("delete_live", 0),
              ("restore", ((3, "a", 0), 3.0, 1.0)), ("compact", None)],
    lifetime=INFINITY, max_size=INFINITY, keys=(1,), indexed=None, observers=1,
)
# ... and a row its own deadline holds keeps its place in the queue
# through an expiry pass, so it is still the first evicted.
@example(
    sequence=[("restore", ((3, "a", 0), 9.0, 4.0)), ("append", ("a", 0)),
              ("lifetime", 5.0), ("max_size", 1), ("append", ("b", 1))],
    lifetime=5.0, max_size=INFINITY, keys=(1,), indexed=None, observers=1,
)
@given(
    sequence=ring_ops,
    lifetime=st.sampled_from([INFINITY, 5.0]),
    max_size=st.sampled_from([INFINITY, 0, 1, 2, 4]),
    keys=st.sampled_from(RING_KEYS),
    indexed=st.sampled_from([None, [0], [2], [1, 2]]),
    observers=st.integers(min_value=0, max_value=2),
)
def test_ring_behaves_like_the_table(
    sequence, lifetime, max_size, keys, indexed, observers
):
    run_ring_against_table(sequence, lifetime, max_size, keys, indexed, observers)


@pytest.mark.parametrize("keys", [(1,), (1, 2)], ids=["one-column", "two-column"])
def test_ring_compacts_and_requeues_without_changing_what_it_answers(keys):
    # Thousands of writes at capacity, with replaces and refreshes:
    # dead slots and stale queue entries are dropped along the way, and
    # a key map is rebuilt as it fills and as slots are renumbered.
    ops = []
    for i in range(600):
        ops.append(("append", ("ab"[i % 2], i % 2)))
        if i % 3 == 0:
            ops.append(("rewrite", (i, i % 2)))
        if i % 5 == 0:
            ops.append(("refresh", i))
        if i % 7 == 0:
            ops.append(("advance", 0.01))
    ring, seen = run_ring_against_table(
        ops, lifetime=5.0, max_size=40, keys=keys, indexed=[2], observers=1
    )
    assert sum(1 for _, why in seen if why is RemoveReason.EVICTED) > 500
    # ... and neither piles up: both stay within a small multiple of
    # the rows the ring holds.
    assert ring._slots - ring._base <= 2 * len(ring) + 33
    assert ring._entries <= 2 * bookkeeping_bound(len(ring))


def test_ring_refreshes_never_outgrow_the_bound():
    # A ring that is only refreshed must not keep one queue entry per
    # refresh (compare test_stale_stamps_never_outgrow_the_bound).
    from repro.runtime.table import Ring

    clock = FakeClock()
    ring = Ring("t", INFINITY, 2, [1], clock)
    for i in range(3):
        ring.append((i, "a", 0))
    for _ in range(200):
        clock.t += 1.0
        ring.append((1, "a", 0))
        ring.append((2, "a", 0))
        assert ring._entries <= 2 * len(ring) + 66
    ring.append((3, "a", 0))
    assert [t.values[0] for t in ring.scan()] == [2, 3]


def test_a_full_ring_gives_back_the_slots_its_oldest_rows_leave():
    # Rows leave a full log ring in write order: the dead run at the
    # front is cut off as it grows, so the ring holds hardly more slots
    # (or queue entries) than rows.
    from repro.runtime.table import Ring

    clock = FakeClock()
    ring = Ring("t", 120.0, 100, [2], clock)
    for seq in range(2000):
        clock.t += 0.001
        ring.append(("n", seq, "text"))
        assert ring._slots - ring._base <= len(ring) + len(ring) // 8 + 33
        assert ring._entries <= len(ring) + len(ring) // 8 + 33
    assert [t.values[1] for t in ring.scan()] == list(range(1900, 2000))
    assert ring.evicted == 1900


def test_a_ring_finds_every_key_after_removals_inside_one_probe_run():
    # Keys whose home bucket is the same (equal low bits after the
    # spread) pile up in one run of the key map, and the keys homed on
    # the last bucket wrap around into it.  Removing them in any order
    # must leave every other key reachable from its home: the entries
    # after a removal move back, and only those.
    import random

    from repro.runtime.table import _SPREAD, Ring

    last = -pow(_SPREAD, -1, 1 << 40) % (1 << 40)  # its home is the mask
    keys = [j << 40 for j in range(1, 40)] + [last + (j << 40) for j in range(40)]
    keys += list(range(1, 20))
    rng = random.Random(7)
    rng.shuffle(keys)
    clock = FakeClock()
    table = Table("t", INFINITY, INFINITY, [1], clock)
    ring = Ring("t", INFINITY, INFINITY, [1], clock)
    for key in keys:
        for target in (table, ring):
            target.insert(Tuple("t", (key, "a")))
    gone = rng.sample(keys, 70)
    for step, key in enumerate(gone):
        assert ring.delete(Tuple("t", (key, "a"))) and table.delete(Tuple("t", (key, "a")))
        for probe in keys:
            assert ring.lookup_key((probe,)) == table.lookup_key((probe,)), (step, probe)
        if step % 10 == 0:  # and a key that was removed comes back
            for target in (table, ring):
                target.insert(Tuple("t", (key, "b")))
    assert list(ring.scan()) == list(table.scan())
