"""In-network monitor aggregation (docs/AGGREGATION.md).

The paper's monitors are ordinary OverLog queries, but a *global*
monitor — one whose verdict summarizes the whole population — naively
centralizes every contributing tuple at a collector node, which cannot
scale past small rings.  This package compiles such monitors into
per-node **partial aggregates** pushed up a deterministic fanout-k
**aggregation tree**, with byte-identical verdicts to the centralized
evaluation (proven by the differential battery in ``tests/aggtree``):

- :mod:`repro.aggtree.partials` — the mergeable partial-state algebra
  (count/sum/min/max and a bounded top-k sketch) with epoch guards;
- :mod:`repro.aggtree.tree` — the fanout-k overlay rooted at the
  collector, rebuilt deterministically from the live population;
- :mod:`repro.aggtree.planner` — the pass that recognizes decomposable
  aggregate rules in a global monitor program and splits them into a
  node-local partial spec plus a merge schedule (non-decomposable rules
  fall back to the centralized path with an ``agg_fallback`` reason);
- :mod:`repro.aggtree.runtime` — installation and epoch-driven
  execution in both ``centralized`` and ``tree`` modes, with the
  per-epoch attribution ledger and ``agg_*`` telemetry;
- :mod:`repro.aggtree.monitors` — the bundled global Chord monitors
  (oscillation, consistency, partition census);
- :mod:`repro.aggtree.differential` — the seed runner the differential
  battery, the CLI (``python -m repro aggtree``,
  :mod:`repro.aggtree.cli`), and CI smoke share.
"""

from repro.aggtree.partials import (
    CountPartial,
    MaxPartial,
    MinPartial,
    Partial,
    SumPartial,
    TopKPartial,
    make_partial,
    partial_from_wire,
)
from repro.aggtree.planner import (
    AggPlan,
    DecomposedRule,
    FallbackRule,
    plan_global,
)
from repro.aggtree.tree import AggregationTree
from repro.aggtree.runtime import (
    AGG_PARTIAL,
    AGG_RAW,
    MODE_CENTRALIZED,
    MODE_TREE,
    AggHandle,
    AggLedger,
    GlobalAggregateMonitor,
)
from repro.aggtree.monitors import (
    BUNDLED_MONITORS,
    fallback_demo_monitor,
    global_consistency_monitor,
    global_oscillation_monitor,
    global_partition_monitor,
)
from repro.aggtree.differential import run_differential, run_one

__all__ = [
    "AGG_PARTIAL",
    "AGG_RAW",
    "AggHandle",
    "AggLedger",
    "AggPlan",
    "AggregationTree",
    "BUNDLED_MONITORS",
    "CountPartial",
    "DecomposedRule",
    "FallbackRule",
    "GlobalAggregateMonitor",
    "MODE_CENTRALIZED",
    "MODE_TREE",
    "MaxPartial",
    "MinPartial",
    "Partial",
    "SumPartial",
    "TopKPartial",
    "fallback_demo_monitor",
    "global_consistency_monitor",
    "global_oscillation_monitor",
    "global_partition_monitor",
    "make_partial",
    "partial_from_wire",
    "plan_global",
    "run_differential",
    "run_one",
]
