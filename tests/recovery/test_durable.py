"""Durable checkpoint+WAL round trips on a plain (non-Chord) system.

The contract under test: after crash → downtime → restart, a node's
table contents equal its pre-crash state *minus* rows whose soft-state
lifetimes lapsed while it was down — and everything journaled after the
last checkpoint (the WAL tail) survives too.
"""

from __future__ import annotations

import json

import pytest

from repro.core.system import System
from repro.errors import DurableImageError, ReproError
from repro.overlog.types import INFINITY
from repro.recovery import DurableMedium, NodeImage, RecoveryManager
from repro.recovery.durable import insert_record
from repro.recovery.postmortem import PostMortem

KV_PROGRAM = """
materialize(item, infinity, infinity, keys(2)).
r1 item@X(K, V) :- put@X(K, V).
"""

SOFT_PROGRAM = """
materialize(soft, 20, infinity, keys(2)).
s1 soft@X(K, V) :- put@X(K, V).
"""


def protected_system(checkpoint_interval=10.0, **node_kwargs):
    system = System(seed=5)
    node = system.add_node("a:1", **node_kwargs)
    manager = RecoveryManager(system, checkpoint_interval=checkpoint_interval)
    manager.protect_all()
    return system, node, manager


def rows(node, name):
    return set(t.values for t in node.query(name))


def test_restart_restores_checkpointed_tuples_exactly():
    system, node, manager = protected_system()
    node.install_source(KV_PROGRAM, name="kv")
    for i in range(8):
        node.inject("put", ("a:1", f"k{i}", i))
    system.run_for(25.0)  # at least two checkpoints
    before = rows(node, "item")
    assert len(before) == 8

    manager.crash("a:1")
    system.run_for(5.0)
    report = manager.restart("a:1")
    after = rows(system.node("a:1"), "item")
    assert after == before
    assert report.lapsed == 0
    assert report.programs == 1


def test_wal_tail_after_last_checkpoint_survives():
    system, node, manager = protected_system(checkpoint_interval=100.0)
    node.install_source(KV_PROGRAM, name="kv")
    node.inject("put", ("a:1", "early", 1))
    system.run_for(1.0)
    # Only the baseline checkpoint exists (t=0, before any data); all
    # rows live exclusively in the WAL.
    image = manager.medium.image("a:1")
    assert image.checkpoints_taken == 1
    assert len(image.wal) > 0

    node.inject("put", ("a:1", "late", 2))
    system.run_for(1.0)
    before = rows(node, "item")
    manager.crash("a:1")
    report = manager.restart("a:1")
    assert rows(system.node("a:1"), "item") == before
    assert report.wal_records > 0


def test_a_protected_node_that_derives_infinity_keeps_running():
    """``infinity`` is a value like any other: the WAL writes it, and
    the restarted node reads the singleton back."""
    system, node, manager = protected_system(checkpoint_interval=100.0)
    node.install_source(
        """
        materialize(lim, infinity, 10, keys(1,2)).
        r1 lim@A(K, infinity) :- ev@A(K).
        """,
        name="lim",
    )
    node.inject("ev", ("a:1", "k"))
    system.run_for(1.0)
    assert rows(node, "lim") == {("a:1", "k", INFINITY)}
    image = manager.medium.image("a:1")
    assert any(r.get("table") == "lim" for r in image.wal)
    manager.crash("a:1")
    manager.restart("a:1")
    (row,) = system.node("a:1").query("lim")
    assert row.values[2] is INFINITY


def test_soft_state_lapses_during_downtime():
    system, node, manager = protected_system()
    node.install_source(SOFT_PROGRAM, name="soft")
    node.inject("put", ("a:1", "k", 1))
    system.run_for(12.0)
    assert rows(node, "soft") == {("a:1", "k", 1)}

    manager.crash("a:1")
    system.run_for(30.0)  # downtime exceeds the 20 s lifetime remainder
    report = manager.restart("a:1")
    assert rows(system.node("a:1"), "soft") == set()
    assert report.lapsed > 0


def test_soft_state_survives_short_downtime_and_keeps_aging():
    system, node, manager = protected_system()
    node.install_source(SOFT_PROGRAM, name="soft")
    node.inject("put", ("a:1", "k", 1))
    system.run_for(5.0)
    manager.crash("a:1")
    system.run_for(5.0)  # 10 s of the 20 s lifetime consumed
    manager.restart("a:1")
    node = system.node("a:1")
    assert rows(node, "soft") == {("a:1", "k", 1)}
    # The restored deadline is absolute: the row still dies on time.
    system.run_for(15.0)
    assert rows(node, "soft") == set()


def test_refresh_extends_ttl_across_restart():
    system, node, manager = protected_system()
    node.install_source(SOFT_PROGRAM, name="soft")
    node.inject("put", ("a:1", "k", 1))
    system.run_for(15.0)
    node.inject("put", ("a:1", "k", 1))  # identical → REFRESHED
    system.run_for(1.0)
    manager.crash("a:1")
    system.run_for(10.0)
    manager.restart("a:1")
    node = system.node("a:1")
    # 26 s since first insert but only 11 s since the refresh.
    assert rows(node, "soft") == {("a:1", "k", 1)}


def test_deletes_are_replayed():
    system, node, manager = protected_system(checkpoint_interval=100.0)
    node.install_source(KV_PROGRAM, name="kv")
    for i in range(4):
        node.inject("put", ("a:1", f"k{i}", i))
    system.run_for(1.0)
    table = node.store.get("item")
    row = table.lookup_key(("k1",))
    table.delete(row)
    before = rows(node, "item")
    assert len(before) == 3

    manager.crash("a:1")
    report = manager.restart("a:1")
    assert rows(system.node("a:1"), "item") == before
    assert report.removed > 0


def test_recovered_node_keeps_processing_rules():
    system, node, manager = protected_system()
    node.install_source(KV_PROGRAM, name="kv")
    node.inject("put", ("a:1", "pre", 1))
    system.run_for(2.0)
    manager.crash("a:1")
    manager.restart("a:1")
    node = system.node("a:1")
    node.inject("put", ("a:1", "post", 2))
    system.run_for(2.0)
    assert rows(node, "item") == {("a:1", "pre", 1), ("a:1", "post", 2)}
    assert node.status == "recovered"
    assert node.restarts == 1


def test_double_crash_replays_recovered_state():
    system, node, manager = protected_system()
    node.install_source(KV_PROGRAM, name="kv")
    node.inject("put", ("a:1", "one", 1))
    system.run_for(2.0)
    manager.crash("a:1")
    manager.restart("a:1")
    node = system.node("a:1")
    node.inject("put", ("a:1", "two", 2))
    system.run_for(2.0)
    manager.crash("a:1")
    manager.restart("a:1")
    node = system.node("a:1")
    assert rows(node, "item") == {("a:1", "one", 1), ("a:1", "two", 2)}
    assert node.restarts == 2


def test_restart_requires_a_crash_first():
    system, node, manager = protected_system()
    with pytest.raises(ReproError):
        manager.restart("a:1")


def test_unprotected_node_has_no_image():
    system = System(seed=1)
    system.add_node("a:1")
    manager = RecoveryManager(system)
    system.crash("a:1")
    with pytest.raises(ReproError):
        manager.restart("a:1")


def test_second_manager_rejected():
    system = System(seed=1)
    RecoveryManager(system)
    with pytest.raises(ReproError):
        RecoveryManager(system)


def test_recovery_metrics_exposed():
    system, node, manager = protected_system()
    node.install_source(KV_PROGRAM, name="kv")
    node.inject("put", ("a:1", "k", 1))
    system.run_for(12.0)
    manager.crash("a:1")
    manager.restart("a:1")
    reg = system.telemetry.metrics
    assert reg.value("recovery_restarts_total", ("a:1",)) == 1
    assert reg.value("recovery_replayed_tuples_total", ("a:1",)) > 0
    assert reg.snapshot("recovery_checkpoint_bytes")[("a:1",)] > 0
    hist = reg.get("recovery_duration_seconds")
    assert hist is not None


def test_images_save_and_load_round_trip(tmp_path):
    system, node, manager = protected_system()
    node.install_source(KV_PROGRAM, name="kv")
    node.inject("put", ("a:1", "k", 1))
    system.run_for(12.0)
    manager.crash("a:1")

    paths = manager.medium.save(str(tmp_path))
    assert len(paths) == 1
    loaded = DurableMedium.load(str(tmp_path))
    image = loaded.image("a:1")
    assert image.checkpoint is not None
    original = manager.medium.image("a:1")
    assert image.checkpoint == original.checkpoint
    assert image.wal == original.wal


# ----------------------------------------------------------------------
# Hostile image files: typed, and naming the file


def saved_image(tmp_path):
    system, node, manager = protected_system()
    node.install_source(KV_PROGRAM, name="kv")
    node.inject("put", ("a:1", "k", 1))
    system.run_for(12.0)
    manager.crash("a:1")
    (path,) = manager.medium.save(str(tmp_path))
    return path


def test_truncated_image_is_a_typed_error_naming_the_file(tmp_path):
    path = saved_image(tmp_path)
    with open(path) as handle:
        text = handle.read()
    with open(path, "w") as handle:
        handle.write(text[: len(text) // 2])
    with pytest.raises(DurableImageError) as caught:
        DurableMedium.load(str(tmp_path))
    assert caught.value.path == path and path in str(caught.value)
    assert "not JSON" in str(caught.value)
    with pytest.raises(DurableImageError):
        NodeImage.from_json(text[: len(text) // 2])


@pytest.mark.parametrize(
    "foreign",
    [
        "[]",
        '{"wal": []}',
        '{"address": "a:1", "wal": 3}',
        '{"address": "a:1", "checkpoint": {"tables": {}}}',
    ],
)
def test_json_that_is_not_an_image_is_a_typed_error(tmp_path, foreign):
    path = tmp_path / "node_x_1.json"
    path.write_text(foreign)
    with pytest.raises(DurableImageError) as caught:
        DurableMedium.load(str(tmp_path))
    assert caught.value.path == str(path)


def test_a_bad_image_beside_a_good_one_is_the_one_named(tmp_path):
    good = saved_image(tmp_path)
    bad = tmp_path / "node_z_9.json"
    bad.write_text('{"address": "z:9", "wal": [')
    with pytest.raises(ReproError) as caught:
        DurableMedium.load(str(tmp_path))
    assert str(bad) in str(caught.value) and good not in str(caught.value)
    bad.unlink()
    assert DurableMedium.load(str(tmp_path)).addresses() == ["a:1"]


def _bogus_op(doc):
    record = insert_record(1, 11.0, "item", ("a:1", "k", 2), 1e9)
    doc["wal"] = [dict(record, op="bogus")]


def _short_row(doc):
    row = doc["checkpoint"]["tables"]["item"]["rows"][0]
    del row[2]


# Replay would trip over each of these (KeyError, ValueError) or, for an
# unknown op, count the record in ``report.wal_records`` and apply
# nothing; loading rejects them instead.
MALFORMED_RECORDS = [
    ("empty-wal-record", lambda doc: doc.update(wal=[{}]), "wal[0]: unknown op None"),
    ("short-checkpoint-row", _short_row, "checkpoint table 'item' row 0:"),
    (
        "checkpoint-without-tables",
        lambda doc: doc["checkpoint"].pop("tables"),
        "'checkpoint' has no 'tables' object",
    ),
    ("unknown-op", _bogus_op, "wal[0]: unknown op 'bogus'"),
]


@pytest.mark.parametrize(
    "damage, reason",
    [case[1:] for case in MALFORMED_RECORDS],
    ids=[case[0] for case in MALFORMED_RECORDS],
)
def test_malformed_records_are_typed_errors_naming_file_and_record(
    tmp_path, damage, reason
):
    path = saved_image(tmp_path)
    with open(path) as handle:
        doc = json.load(handle)
    damage(doc)
    with open(path, "w") as handle:
        json.dump(doc, handle)
    with pytest.raises(DurableImageError) as caught:
        PostMortem(DurableMedium.load(str(tmp_path)), "a:1")
    assert caught.value.path == path and reason in str(caught.value)
