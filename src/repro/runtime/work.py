"""CPU-work accounting for virtual nodes.

The paper reports OS-level CPU utilization of a P2 process.  Our nodes
run inside a discrete-event simulator, so we substitute a *work model*:
every dataflow operation charges a fixed simulated cost, and a node's
"CPU utilization" is accumulated busy-seconds divided by elapsed virtual
time.  The absolute costs below are arbitrary but fixed; all the paper's
evaluation claims are about relative shapes (linear vs. superlinear
growth, tracing on vs. off), which this preserves.

The work model also provides the *micro-clock*: within one event-
processing turn, charged work advances a sub-virtual-time offset so that
execution traces get strictly increasing timestamps (rule start < rule
end), which is what makes the paper's §3.2 latency profiling meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

DEFAULT_COSTS: Dict[str, float] = {
    "match": 5e-6,        # trigger pattern unification
    "join": 10e-6,        # table access overhead per join invocation
    "join_probe": 2e-6,   # one table row scanned in a join
    "join_indexed": 2e-6,  # one row examined via a hash-index bucket
    "select": 3e-6,       # condition evaluation
    "assign": 4e-6,       # assignment evaluation
    "project": 8e-6,      # head projection / action construction
    "insert": 6e-6,       # table insert
    "delete": 6e-6,       # table delete
    "send": 15e-6,        # marshal + transmit
    "receive": 15e-6,     # receive + unmarshal
    "timer": 2e-6,        # periodic timer firing
    "trace": 4e-6,        # tracer tap / record bookkeeping
}


@dataclass
class WorkCounters:
    """Raw operation counts, kept alongside the charged busy time."""

    counts: Dict[str, int] = field(default_factory=dict)

    def add(self, op: str, amount: int) -> None:
        self.counts[op] = self.counts.get(op, 0) + amount

    def total(self) -> int:
        return sum(self.counts.values())


class WorkModel:
    """Accumulates busy time and exposes the intra-event micro-clock."""

    def __init__(self, costs: Dict[str, float] = None) -> None:
        self.costs = dict(DEFAULT_COSTS)
        if costs:
            self.costs.update(costs)
        self.busy_seconds = 0.0
        self.counters = WorkCounters()
        self._counts = self.counters.counts
        self._micro_offset = 0.0

    def charge(self, op: str, amount: int = 1) -> None:
        """Charge ``amount`` operations of kind ``op``."""
        cost = self.costs.get(op, 1e-6)
        if amount != 1:  # x * 1 is x: skipping it changes no float
            cost *= amount
        self.busy_seconds += cost
        self._micro_offset += cost
        # Inlined WorkCounters.add: charge() runs millions of times per
        # simulated minute and the extra call shows up in profiles.
        counts = self._counts
        counts[op] = counts.get(op, 0) + amount

    @property
    def micro_offset(self) -> float:
        """Sub-event time accumulated during the current processing turn."""
        return self._micro_offset

    def reset_micro(self) -> None:
        """Start a new processing turn (called by the node's pump)."""
        self._micro_offset = 0.0

    def utilization(self, elapsed: float) -> float:
        """Busy fraction over ``elapsed`` virtual seconds (may exceed 1)."""
        if elapsed <= 0:
            return 0.0
        return self.busy_seconds / elapsed
