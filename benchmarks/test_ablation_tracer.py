"""Ablation: where the tracing overhead comes from (DESIGN.md §6).

Two knobs behind the §4 logging-cost number:

- the tracer's record bookkeeping + ruleExec writes (tracing on/off);
- the event logger's tuple/table logs (logging on/off).

Measured on a single node running a fixed synthetic workload, so the
deltas are attributable.
"""

import pytest

from benchmarks.common import Row, sample_to_row, write_results
from repro.core.metrics import Meter
from repro.core.system import System

WORKLOAD = """
materialize(state, 60, 200, keys(1,2)).
w1 state@N(E) :- periodic@N(E, 0.5).
w2 derived@N(S) :- state@N(S).
w3 chained@N(S) :- derived@N(S).
"""

WINDOW = 120.0


def run_one(label: str, tracing: bool, logging: bool) -> Row:
    system = System(seed=5)
    node = system.add_node("n:1", tracing=tracing, logging=logging)
    node.install_source(WORKLOAD, name="workload")
    system.run_for(20.0)
    meter = Meter(system)
    meter.start()
    system.run_for(WINDOW)
    sample = meter.stop()
    return sample_to_row(label, sample)


def run_ablation():
    return [
        run_one("plain", tracing=False, logging=False),
        run_one("logging", tracing=False, logging=True),
        run_one("tracing", tracing=True, logging=False),
        run_one("both", tracing=True, logging=True),
    ]


@pytest.mark.benchmark(group="ablation")
def test_tracer_ablation(benchmark):
    rows = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    write_results(
        "ablation_tracer",
        f"Ablation: introspection knobs on a fixed workload "
        f"(window {WINDOW:.0f}s)",
        rows,
    )
    plain, logging, tracing, both = rows
    # Each knob costs something...
    assert logging.cpu_percent > plain.cpu_percent
    assert tracing.cpu_percent > plain.cpu_percent
    assert tracing.live_tuples > plain.live_tuples  # ruleExec/tupleTable
    # ...and the combination costs at least as much as either alone.
    assert both.cpu_percent >= max(logging.cpu_percent, tracing.cpu_percent)


@pytest.mark.benchmark(group="ablation")
def test_trace_tables_are_bounded(benchmark):
    """The paper's 'fixed number of execution records' optimization:
    trace state must plateau, not grow with runtime."""

    def run():
        system = System(seed=6, trace_lifetime=30.0, trace_entries=500)
        node = system.add_node("n:1", tracing=True)
        node.install_source(WORKLOAD, name="workload")
        system.run_for(60.0)
        early = node.live_tuples()
        system.run_for(180.0)
        late = node.live_tuples()
        return early, late

    early, late = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\ntrace state: early={early} late={late}")
    assert late <= early * 1.5
