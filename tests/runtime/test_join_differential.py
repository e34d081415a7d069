"""Differential scan-vs-index oracle for join evaluation.

The planner's hash-index selection (``Table.index_on`` +
``JoinElement``'s indexed probe path) must be *observably identical* to
the naive scan-everything evaluation it replaces.  This harness runs
identical seeded workloads through both paths — the bundled OverLog
programs (Chord, gossip, the §3 monitors) and a few hundred randomized
generated programs — and compares:

- the ordered per-node stream of every locally delivered tuple,
- final table contents,
- the stream of ``ruleExec`` causality rows written by the tracer,
  projected to (rule, cause id, effect id, is_event).

Randomized programs avoid wall-clock builtins, so their comparison is
exact (``==`` on everything, in order).  The bundled programs stamp
``f_now()`` into tuples, and ``f_now`` reads the work-model micro-clock
— which legitimately differs between modes because indexed joins charge
fewer probe units.  For those, non-float values compare exactly and
floats within a small tolerance; trace timestamps (columns 4/5 of
ruleExec) are excluded for the same reason.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Tuple as PyTuple

import pytest

from repro.chord import ChordNetwork
from repro.gossip.harness import GossipNetwork
from repro.introspect.tracer import RULE_EXEC, Tracer
from repro.monitors import (
    ConsistencyProbeMonitor,
    PassiveRingMonitor,
    RingProbeMonitor,
)
from repro.net.network import Network
from repro.net.topology import ConstantLatency
from repro.runtime.node import P2Node
from repro.runtime.planner import scan_joins
from repro.sim.simulator import Simulator

# Number of randomized generated programs per mode comparison.
RANDOM_CASES = 220

# Micro-clock drift bound: one pump turn charges at most a few
# milliseconds of simulated work, and stamps are one-shot.
FLOAT_TOLERANCE = 0.05


# ----------------------------------------------------------------------
# Capture and comparison machinery


def attach_stream(node: P2Node) -> List[PyTuple]:
    """Record every locally delivered tuple, in order."""
    log: List[PyTuple] = []
    node.on_deliver.append(lambda t, _log=log: _log.append((t.name, t.values)))
    return log


def rule_exec_rows(node: P2Node) -> List[PyTuple]:
    """The node's ruleExec causality rows, projected to the table's key
    columns (rule, cause id, effect id, is_event) and sorted.

    The in/out timestamp columns are excluded deliberately: they read
    the work-model micro-clock, which legitimately differs between scan
    and indexed evaluation (fewer rows examined = less charged work).
    The projection is exactly what the forensic analyses join on.
    """
    if not node.store.has(RULE_EXEC):
        return []
    return sorted(
        (t.values[1], t.values[2], t.values[3], t.values[6])
        for t in node.store.get(RULE_EXEC).scan()
    )


def assert_equal_loose(a: Any, b: Any, where: str) -> None:
    """Exact equality except floats, which compare within tolerance."""
    if isinstance(a, float) and not isinstance(a, bool):
        assert isinstance(b, float), f"{where}: {a!r} vs {b!r}"
        assert abs(a - b) <= FLOAT_TOLERANCE, f"{where}: {a!r} vs {b!r}"
        return
    if isinstance(a, tuple):
        assert isinstance(b, tuple) and len(a) == len(b), (
            f"{where}: {a!r} vs {b!r}"
        )
        for i, (x, y) in enumerate(zip(a, b)):
            assert_equal_loose(x, y, f"{where}[{i}]")
        return
    assert type(a) is type(b) and a == b, f"{where}: {a!r} vs {b!r}"


def compare_streams(
    scan: Dict[str, List[PyTuple]],
    indexed: Dict[str, List[PyTuple]],
    exact: bool,
) -> None:
    assert scan.keys() == indexed.keys()
    for key in scan:
        a, b = scan[key], indexed[key]
        if exact:
            if a != b:
                if len(a) != len(b):
                    detail = f"length {len(a)} vs {len(b)}"
                else:
                    first = next(
                        i for i, (x, y) in enumerate(zip(a, b)) if x != y
                    )
                    detail = f"entry {first}: {a[first]!r} vs {b[first]!r}"
                pytest.fail(f"{key}: streams diverge — {detail}")
        else:
            assert len(a) == len(b), f"{key}: {len(a)} vs {len(b)} deliveries"
            for i, (x, y) in enumerate(zip(a, b)):
                assert_equal_loose(x, y, f"{key}[{i}]")


def join_rows_examined(nodes: List[P2Node]) -> Dict[str, int]:
    out = {"join_probe": 0, "join_indexed": 0}
    for node in nodes:
        for op in out:
            out[op] += node.work.counters.counts.get(op, 0)
    return out


# ----------------------------------------------------------------------
# Bundled program workloads


def run_chord(indexed: bool) -> PyTuple:
    def build():
        net = ChordNetwork(num_nodes=5, seed=11, tracing=True)
        streams = {
            addr: attach_stream(net.node(addr)) for addr in net.addresses
        }
        net.start()
        net.run_for(45.0)
        exec_logs = {
            addr: rule_exec_rows(net.node(addr)) for addr in net.addresses
        }
        return net, streams, exec_logs

    if indexed:
        return build()
    with scan_joins():
        return build()


def test_chord_differential():
    net_s, streams_s, exec_s = run_chord(indexed=False)
    net_i, streams_i, exec_i = run_chord(indexed=True)
    compare_streams(streams_s, streams_i, exact=False)
    compare_streams(exec_s, exec_i, exact=True)
    nodes_s = [net_s.node(a) for a in net_s.addresses]
    nodes_i = [net_i.node(a) for a in net_i.addresses]
    ops_s = join_rows_examined(nodes_s)
    ops_i = join_rows_examined(nodes_i)
    assert ops_i["join_probe"] == 0  # every Chord join found an index
    assert (
        ops_i["join_indexed"]
        <= ops_s["join_probe"] + ops_s["join_indexed"]
    )


def test_chord_with_monitors_differential():
    def build(indexed):
        def inner():
            net = ChordNetwork(num_nodes=5, seed=23, tracing=True)
            streams = {
                addr: attach_stream(net.node(addr)) for addr in net.addresses
            }
            net.start()
            assert net.wait_stable(max_time=300.0)
            net.run_for(30.0)
            nodes = [net.node(a) for a in net.live_addresses()]
            RingProbeMonitor(probe_period=10.0).install(nodes)
            PassiveRingMonitor().install(nodes)
            ConsistencyProbeMonitor(
                probe_period=15.0, tally_period=10.0
            ).install(nodes)
            net.run_for(45.0)
            return streams

        if indexed:
            return inner()
        with scan_joins():
            return inner()

    compare_streams(build(False), build(True), exact=False)


def test_gossip_differential():
    def build(indexed):
        def inner():
            net = GossipNetwork(num_nodes=6, seed=5, tracing=True)
            streams = {
                addr: attach_stream(net.node(addr)) for addr in net.addresses
            }
            net.start()
            net.run_for(20.0)
            net.publish(net.addresses[0], 1, "payload")
            net.run_for(30.0)
            exec_logs = {
                addr: rule_exec_rows(net.node(addr))
                for addr in net.addresses
            }
            return streams, exec_logs

        if indexed:
            return inner()
        with scan_joins():
            return inner()

    streams_s, exec_s = build(False)
    streams_i, exec_i = build(True)
    compare_streams(streams_s, streams_i, exact=False)
    compare_streams(exec_s, exec_i, exact=True)


# ----------------------------------------------------------------------
# Randomized generated programs

ADDRESS = "n:1"
INT_DOMAIN = (0, 1, 2, 3)
STR_DOMAIN = ("a", "b", "c")


def _random_schema(rng: random.Random) -> List[PyTuple]:
    """[(table_name, arity, lifetime, size, keys)] — arity includes the
    location column."""
    tables = []
    for i in range(rng.randint(1, 3)):
        arity = rng.randint(2, 4)
        lifetime = rng.choice(["infinity", "infinity", 5, 12])
        size = rng.choice(["infinity", 3, 6])
        n_keys = rng.randint(1, arity)
        keys = sorted(rng.sample(range(1, arity + 1), n_keys))
        tables.append((f"t{i}", arity, lifetime, size, keys))
    return tables


def _value(rng: random.Random) -> Any:
    return rng.choice(INT_DOMAIN + STR_DOMAIN)


def _random_rules(rng: random.Random, tables: List[PyTuple]) -> str:
    """Rules designed to exercise index selection variety.

    Table-delta rules only derive into strictly later tables, so the
    rule graph is acyclic and every workload terminates.
    """
    lines = []
    for r in range(rng.randint(1, 4)):
        event_trigger = rng.random() < 0.7 or len(tables) == 1
        n_joins = rng.randint(1, min(3, len(tables)))
        join_tables = rng.sample(tables, n_joins)
        bound = ["A"]
        body: List[str] = []
        fresh = 0
        if event_trigger:
            ev_arity = rng.randint(1, 3)
            args = [f"E{i}" for i in range(ev_arity)]
            body.append(f"ev@A({', '.join(args)})")
            bound += args
        else:
            # Delta rule: the first (earliest-indexed) sampled table is
            # the body; head must go into a strictly later table.
            join_tables.sort(key=lambda t: t[0])
        for name, arity, _, _, _ in join_tables:
            args = []
            for _pos in range(arity - 1):
                kind = rng.random()
                if kind < 0.35 and len(bound) > 1:
                    args.append(rng.choice(bound[1:]))
                elif kind < 0.55:
                    value = _value(rng)
                    args.append(
                        f'"{value}"' if isinstance(value, str) else str(value)
                    )
                elif kind < 0.65:
                    args.append(f"_W{fresh}")
                    fresh += 1
                else:
                    var = f"X{fresh}"
                    fresh += 1
                    args.append(var)
                    bound.append(var)
            body.append(f"{name}@A({', '.join(args)})")
        if rng.random() < 0.4 and len(bound) > 1:
            left = rng.choice(bound[1:])
            if rng.random() < 0.5:
                body.append(f"{left} != {rng.randint(0, 3)}")
            else:
                body.append(f"{left} == {rng.choice(bound[1:])}")
        if rng.random() < 0.3:
            var = f"Y{r}"
            body.append(f"{var} := {rng.randint(0, 9)}")
            bound.append(var)
        head_vars = [v for v in bound[1:] if rng.random() < 0.6][:3]
        kind = rng.random()
        later = [
            t
            for t in tables
            if not join_tables or t[0] > max(n for n, *_ in join_tables)
        ]
        if kind < 0.2 and later and event_trigger:
            # Derive into a table (triggers delta rules downstream).
            name, arity, _, _, _ = rng.choice(later)
            args = []
            for _pos in range(arity - 1):
                if head_vars and rng.random() < 0.6:
                    args.append(rng.choice(head_vars))
                else:
                    value = _value(rng)
                    args.append(
                        f'"{value}"' if isinstance(value, str) else str(value)
                    )
            head = f"{name}@A({', '.join(args)})"
        elif kind < 0.3 and rng.random() < 0.5 and event_trigger:
            head = f"out{r}@A({', '.join(head_vars + ['count<*>'])})"
        else:
            head = f"out{r}@A({', '.join(head_vars)})"
        lines.append(f"r{r} {head} :- {', '.join(body)}.")
    return "\n".join(lines)


def _random_program(rng: random.Random) -> PyTuple:
    tables = _random_schema(rng)
    decls = [
        f"materialize({name}, {lifetime}, {size}, "
        f"keys({', '.join(map(str, keys))}))."
        for name, _, lifetime, size, keys in tables
    ]
    return "\n".join(decls) + "\n" + _random_rules(rng, tables), tables


def _random_workload(rng: random.Random, tables: List[PyTuple]) -> List[PyTuple]:
    """A script of (op, payload) steps, replayed identically per mode."""
    steps: List[PyTuple] = []
    for _ in range(rng.randint(10, 40)):
        move = rng.random()
        if move < 0.15:
            steps.append(("advance", round(rng.uniform(0.5, 4.0), 3)))
        elif move < 0.55 and tables:
            name, arity, _, _, _ = rng.choice(tables)
            values = (ADDRESS,) + tuple(
                _value(rng) for _ in range(arity - 1)
            )
            steps.append(("inject", (name, values)))
        else:
            values = (ADDRESS,) + tuple(
                _value(rng) for _ in range(rng.randint(1, 3))
            )
            steps.append(("inject", ("ev", values)))
    return steps


def _run_random_case(
    source: str,
    tables: List[PyTuple],
    workload: List[PyTuple],
    indexed: bool,
) -> PyTuple:
    def inner():
        sim = Simulator(seed=99)
        network = Network(sim, ConstantLatency(0.01))
        node = P2Node(ADDRESS, sim, network)
        Tracer(node)
        stream = attach_stream(node)
        node.install_source(source, name="fuzz")
        for op, payload in workload:
            if op == "advance":
                sim.run_for(payload)
            else:
                name, values = payload
                node.inject(name, values)
        sim.run_for(2.0)
        exec_log = rule_exec_rows(node)
        tables_state = {
            name: node.query(name) for name, *_ in tables
        }
        examined = join_rows_examined([node])
        return stream, exec_log, tables_state, examined

    if indexed:
        return inner()
    with scan_joins():
        return inner()


def test_randomized_programs_differential():
    """>= 200 random programs: scan and indexed evaluation are
    byte-identical (no wall-clock builtins are generated, so no
    tolerance is needed)."""
    total_scan_rows = 0
    total_indexed_rows = 0
    indexed_join_cases = 0
    for case in range(RANDOM_CASES):
        rng = random.Random(1000 + case)
        (source, tables) = _random_program(rng)
        workload = _random_workload(rng, tables)
        scan = _run_random_case(source, tables, workload, indexed=False)
        fast = _run_random_case(source, tables, workload, indexed=True)
        context = f"case {case}\n{source}"
        assert scan[0] == fast[0], f"delivery stream diverged: {context}"
        assert scan[1] == fast[1], f"ruleExec diverged: {context}"
        assert scan[2] == fast[2], f"table state diverged: {context}"
        total_scan_rows += scan[3]["join_probe"] + scan[3]["join_indexed"]
        total_indexed_rows += fast[3]["join_probe"] + fast[3]["join_indexed"]
        if fast[3]["join_indexed"]:
            indexed_join_cases += 1
    # The index must actually engage and prune across the corpus.
    assert indexed_join_cases > RANDOM_CASES // 2
    assert total_indexed_rows < total_scan_rows
