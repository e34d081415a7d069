"""Rule-execution counts are loop-independent, everywhere they surface.

The tick loop and the test-side per-event reference loop
(``tests/runtime/reference_loop.py``) run the same pump, so a seeded
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
from tests.batchexec.harness import MODES

NODES = 6
SEED = 2
DURATION = 60.0


def run_chord(mode, observability=False):
    with mode():
        net = ChordNetwork(
            num_nodes=NODES, seed=SEED, observability=observability
        )
        net.start()
        net.run_for(DURATION)
    return net


def test_dashboard_rule_execs_identical_across_kernels():
    renders = {}
    for label, mode in MODES.items():
        net = run_chord(mode)
        renders[label] = Dashboard(net.system, title="ring").render()
    assert renders["reference"] == renders["tick"]
    assert "rule-execs" in renders["tick"]


def test_summarize_fires_identical_across_kernels(tmp_path):
    artifacts = {}
    for label, mode in MODES.items():
        net = run_chord(mode, observability=True)
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
    assert fires["reference"] == fires["tick"]
    assert sum(fires["tick"].values()) > 0

    # The full summaries agree too (durations come off the charged-work
    # micro-clock, which the differential battery pins bit-identical).
    texts = {
        label: summarize(str(path)).splitlines()[1:]
        for label, path in artifacts.items()
    }
    assert texts["reference"] == texts["tick"]
