"""Rule-execution counts are kernel-independent, everywhere they surface.

The per-event loop and the tick kernel run the same pump, so a seeded
workload must report the same number of rule executions under both at
every layer an operator reads (``tests/batchexec`` pins the raw
``P2Node.rule_executions`` counter):

- the Dashboard's per-node ``rule-execs`` column (the
  ``node_rule_executions_total`` gauge);
- ``repro.obs summarize`` over an exported artifact (per-rule ``fires``
  from the ``rule_duration_seconds`` histogram).
"""

from __future__ import annotations

from repro.chord.harness import ChordNetwork
from repro.obs.export import write_jsonl
from repro.obs.summarize import Artifact, summarize
from repro.report import Dashboard
from repro.sim.batch import DEFAULT_TICK, ExecutionConfig

PER_TUPLE = ExecutionConfig(batch_size=1, tick=DEFAULT_TICK)
BATCHED = ExecutionConfig(batch_size=None, tick=DEFAULT_TICK)

NODES = 6
SEED = 2
DURATION = 60.0


def run_chord(execution, observability=False):
    net = ChordNetwork(
        num_nodes=NODES,
        seed=SEED,
        execution=execution,
        observability=observability,
    )
    net.start()
    net.run_for(DURATION)
    return net


def test_dashboard_rule_execs_identical_across_kernels():
    renders = {}
    for label, execution in (("per-tuple", PER_TUPLE), ("batched", BATCHED)):
        net = run_chord(execution)
        renders[label] = Dashboard(net.system, title="ring").render()
    assert renders["per-tuple"] == renders["batched"]
    assert "rule-execs" in renders["batched"]


def test_summarize_fires_identical_across_kernels(tmp_path):
    artifacts = {}
    for label, execution in (("per-tuple", PER_TUPLE), ("batched", BATCHED)):
        net = run_chord(execution, observability=True)
        path = tmp_path / f"{label}.jsonl"
        write_jsonl(net.system.telemetry, str(path))
        artifacts[label] = path

    stats = {
        label: Artifact.load(str(path)).rule_stats()
        for label, path in artifacts.items()
    }
    fires = {
        label: {rule: row["count"] for rule, row in rows}
        for label, rows in stats.items()
    }
    assert fires["per-tuple"] == fires["batched"]
    assert sum(fires["batched"].values()) > 0

    # The full summaries agree too (durations come off the charged-work
    # micro-clock, which the differential battery pins bit-identical).
    texts = {
        label: summarize(str(path)).splitlines()[1:]
        for label, path in artifacts.items()
    }
    assert texts["per-tuple"] == texts["batched"]
