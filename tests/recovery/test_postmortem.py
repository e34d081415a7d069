"""Forensics over a permanently dead node's durable log.

The paper's forensic claim, applied post-mortem: the execution trace
(``ruleExec``) is data, so investigating a dead node means replaying
its durable image into a quiet replica and running ordinary OverLog
over the reconstructed tables.
"""

from __future__ import annotations

import pytest

from repro.core.system import System
from repro.errors import ReproError
from repro.recovery import DurableMedium, PostMortem, RecoveryManager
from repro.runtime.table import Ring
from repro.store.store import RINGS

KV_PROGRAM = """
materialize(item, infinity, infinity, keys(2)).
r1 item@X(K, V) :- put@X(K, V).
r2 ack@X(K) :- put@X(K, V).
"""


def crashed_traced_node():
    system = System(seed=9)
    node = system.add_node("a:1", tracing=True, logging=True)
    manager = RecoveryManager(system, checkpoint_interval=10.0)
    manager.protect_all()
    node.install_source(KV_PROGRAM, name="kv")
    for i in range(6):
        node.inject("put", ("a:1", f"k{i}", i))
    system.run_for(15.0)
    pre_crash = {
        "ruleExec": set(t.values for t in node.query("ruleExec")),
        "item": set(t.values for t in node.query("item")),
        "tupleLog": set(t.values for t in node.query("tupleLog")),
    }
    manager.crash("a:1")
    return system, manager, pre_crash


def test_postmortem_reconstructs_rule_exec_history():
    system, manager, pre_crash = crashed_traced_node()
    assert pre_crash["ruleExec"], "tracer produced no ruleExec rows"

    pm = manager.post_mortem("a:1")
    reconstructed = set(t.values for t in pm.query("ruleExec"))
    assert reconstructed == pre_crash["ruleExec"]

    history = pm.rule_exec_history()
    times = [t.values[5] for t in history]
    assert times == sorted(times)


def test_postmortem_replica_holds_the_introspection_relations_as_rings():
    # WAL replay creates ruleExec, tupleTable and the logs the way their
    # writers do, so a reader never meets one of them as a Table.
    system, manager, _ = crashed_traced_node()
    pm = manager.post_mortem("a:1")
    held = [name for name in RINGS if pm.node.store.has(name)]
    assert {"ruleExec", "tupleLog"} <= set(held)
    for name in held:
        assert isinstance(pm.node.store.get(name), Ring), name


def test_postmortem_reconstructs_materialized_state_and_logs():
    system, manager, pre_crash = crashed_traced_node()
    pm = manager.post_mortem("a:1")
    assert set(t.values for t in pm.query("item")) == pre_crash["item"]
    assert set(t.values for t in pm.query("tupleLog")) == pre_crash["tupleLog"]
    assert "kv" in " ".join(pm.programs()) or pm.programs()


def test_forensic_overlog_query_over_dead_node():
    system, manager, pre_crash = crashed_traced_node()
    pm = manager.post_mortem("a:1")
    rules_seen = {t.values[1] for t in pm.query("ruleExec")}
    assert rules_seen, "no reconstructed rule executions to query"

    # The replica is live OverLog: an injected probe event joins against
    # the reconstructed ruleExec table — querying the dead node's
    # execution history with an ordinary rule.
    pm.install_source(
        "q1 answer@N(Rule) :- ask@N(), ruleExec@N(Rule, C, E, T1, T2, Ev).",
        name="forensics",
    )
    answers = pm.node.collect("answer")
    pm.node.inject("ask", ("a:1",))
    pm.run_for(1.0)
    assert {t.values[1] for t in answers} == rules_seen


def test_postmortem_is_isolated_from_the_original_system():
    system, manager, pre_crash = crashed_traced_node()
    t_before = system.now
    pm = manager.post_mortem("a:1")
    pm.run_for(50.0)
    assert system.now == t_before
    assert pm.system is not system


def test_postmortem_from_saved_artifacts(tmp_path):
    system, manager, pre_crash = crashed_traced_node()
    manager.medium.save(str(tmp_path))
    medium = DurableMedium.load(str(tmp_path))
    pm = PostMortem(medium, "a:1")
    assert set(t.values for t in pm.query("ruleExec")) == pre_crash["ruleExec"]


def test_postmortem_unknown_address_raises():
    medium = DurableMedium()
    with pytest.raises(ReproError):
        PostMortem(medium, "ghost:1")
