"""Telemetry observes the simulation without taking part in it.

Two invariants on one fixed single-node workload, both on the virtual
clock only (no wall time is read):

- **determinism** — two telemetry-off runs produce identical
  measurements, so the baseline is exact, not statistical;
- **no heisenberg** — a telemetry-on run equals them exactly (cpu %,
  tx, tuples, bytes, per-op counts) while its strands record one
  ``rule_duration_seconds`` observation per firing: what a strand keeps
  about its own firings never touches the sim clock, the work model or
  the random streams.

What telemetry costs in *wall* time is ``events_per_s`` on the
``ring_observed`` workload against ``ring_bare`` in ``benchmarks/e2e``.
"""

from repro.core.metrics import Meter
from repro.core.system import System

WORKLOAD = """
materialize(state, 60, 200, keys(1,2)).
w1 state@N(E) :- periodic@N(E, 0.5).
w2 derived@N(S) :- state@N(S).
w3 chained@N(S) :- derived@N(S).
"""


def run_one(observability: bool):
    system = System(seed=5, observability=observability)
    node = system.add_node("n:1")
    node.install_source(WORKLOAD, name="workload")
    system.run_for(20.0)
    meter = Meter(system)
    meter.start()
    system.run_for(120.0)
    sample = meter.stop()
    signature = (
        sample.cpu_percent,
        sample.tx_messages,
        sample.live_tuples,
        sample.memory_bytes,
        sample.churn_bytes,
        tuple(sorted(sample.ops.items())),
    )
    return signature, system


def test_telemetry_does_not_perturb_the_simulation():
    baseline, _ = run_one(False)
    repeat, disabled = run_one(False)
    enabled, system = run_one(True)
    assert sum(count for _, count in baseline[-1]) > 1000
    assert repeat == baseline
    assert enabled == baseline
    (node,) = system.nodes.values()
    durations = system.telemetry.metrics.snapshot("rule_duration_seconds")
    assert set(durations) == {("n:1", "w1"), ("n:1", "w2"), ("n:1", "w3")}
    assert sum(data.count for data in durations.values()) == node.rule_executions
    # With telemetry off the strands keep nothing.
    assert disabled.telemetry.metrics.snapshot("rule_duration_seconds") == {}
