"""Shared machinery for the figure-regeneration benchmarks.

Every benchmark measures a steady-state window of a simulated
deployment with :class:`repro.core.Meter` and reports the paper's four
series: CPU utilization (work-model proxy, %), memory (estimated tuple
bytes), transmitted messages, and live tuples.  Absolute values are not
comparable to the paper's C++ testbed; the *shapes* (what grows, how
fast, who is cheaper) are the reproduction target — see DESIGN.md §4/§5.

Results are also appended to ``benchmarks/results/*.txt`` so
EXPERIMENTS.md can quote the measured tables.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from repro.chord import ChordNetwork, ChordParams
from repro.core.metrics import Meter, MetricsSample

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

# The paper's probe/snapshot rate axis: 1/32 ... 1 per second.
PAPER_RATES = (1 / 32, 1 / 16, 1 / 8, 1 / 4, 1 / 2, 1.0)


@dataclass
class Row:
    """One configuration's measurements.

    ``churn_kib`` is transient tuple allocation during the window (the
    proxy for the paper's process-memory growth when rule outputs are
    events rather than stored state — see EXPERIMENTS.md).
    """

    label: str
    cpu_percent: float
    memory_bytes: float
    tx_messages: int
    live_tuples: float
    churn_kib: float = 0.0

    def formatted(self) -> str:
        return (
            f"{self.label:>12} | cpu {self.cpu_percent:8.3f}% | "
            f"mem {self.memory_bytes / 1024.0:9.1f} KiB | "
            f"tx {self.tx_messages:7d} | live {self.live_tuples:9.1f} | "
            f"churn {self.churn_kib:10.1f} KiB"
        )


def sample_to_row(label: str, sample) -> Row:
    """Build a Row from a MetricsSample."""
    return Row(
        label=label,
        cpu_percent=sample.cpu_percent,
        memory_bytes=sample.memory_bytes,
        tx_messages=sample.tx_messages,
        live_tuples=sample.live_tuples,
        churn_kib=sample.churn_bytes / 1024.0,
    )


def write_results(name: str, title: str, rows: Sequence[Row]) -> str:
    """Render a table, persist it under benchmarks/results/, return it."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    lines = [title, "-" * len(title)]
    lines += [row.formatted() for row in rows]
    text = "\n".join(lines)
    with open(os.path.join(RESULTS_DIR, f"{name}.txt"), "w") as handle:
        handle.write(text + "\n")
    print("\n" + text)
    return text


def write_text(name: str, text: str) -> str:
    """Persist a free-form result block under benchmarks/results/."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, f"{name}.txt"), "w") as handle:
        handle.write(text.rstrip("\n") + "\n")
    print("\n" + text)
    return text


def measure_window(
    system,
    addresses: Optional[List[str]],
    warmup: float,
    window: float,
) -> MetricsSample:
    """Warm up, then measure one steady-state window."""
    system.run_for(warmup)
    meter = Meter(system, addresses=addresses)
    meter.start()
    system.run_for(window)
    return meter.stop()


def build_stable_chord(
    num_nodes: int = 8,
    seed: int = 3,
    tracing: bool = False,
    recycle_dead_bug: bool = False,
    settle: float = 60.0,
    params: Optional[ChordParams] = None,
) -> ChordNetwork:
    """A stabilized Chord population ready for measurement."""
    net = ChordNetwork(
        num_nodes=num_nodes,
        seed=seed,
        tracing=tracing,
        recycle_dead_bug=recycle_dead_bug,
        params=params,
    )
    net.start()
    if not net.wait_stable(max_time=300.0):
        raise RuntimeError(f"chord failed to stabilize: {net.ring_errors()}")
    net.run_for(settle)
    return net


def slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope — used for 'grows linearly' shape checks."""
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    num = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    den = sum((x - mean_x) ** 2 for x in xs)
    return num / den if den else 0.0


def mostly_increasing(values: Sequence[float], tolerance: float = 0.0) -> bool:
    """True when the series grows overall (first < last) and no step
    drops by more than ``tolerance`` of the total range (noise guard)."""
    if values[-1] <= values[0]:
        return False
    span = values[-1] - values[0]
    for a, b in zip(values, values[1:]):
        if b < a - tolerance * span:
            return False
    return True
