"""The execution tracer: rule-level tracing into ``ruleExec`` (§2.1).

The planner's taps (strand hooks) deliver four signals — input observed,
precondition observed at a stage, output observed, stage completed — and
the tracer reconstructs rule executions from them using per-strand
*tracer records* with pipelined stage association, following §2.1.2:

- a record is associated with a contiguous range of pipeline stages
  (the stateful join elements it currently occupies);
- a new input reuses a record with no associated stages (or creates
  one) and associates it with stage 1;
- a precondition at stage *i* goes to the record currently occupying
  stage *i* (a record that just finished stage *i-1* is extended to
  *i*); any filled fields to the right of *i* are flushed, because
  tuples flow left-to-right through a strand;
- an output is attributed to the record deepest in the pipeline;
- when stage *i* completes, the record whose range starts at *i*
  advances; a record that advances past the last stage retires.

Each observed output produces the paper's normalized rows::

    ruleExec@N(Rule, CauseID, EffectID, InT, OutT, IsEvent)

one row with the triggering event as cause (IsEvent = true) and one per
filled precondition (IsEvent = false).  Rows reference tuples by their
``tupleTable`` IDs; reference counts are maintained via the ring's
values observers so tuple memos die with their last referring row.

Only completed executions are stored (the paper's "only store executions
that produce a valid output" optimization), and ``ruleExec`` is a
bounded :class:`~repro.runtime.table.Ring` (the "fixed number of
execution records" optimization): a row is appended as its values.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.overlog.ast import Materialize
from repro.runtime.node import P2Node
from repro.runtime.strand import RuleStrand, TraceHooks
from repro.runtime.tuples import Tuple
from repro.introspect.tuple_table import TUPLE_TABLE, TupleRegistry

RULE_EXEC = "ruleExec"

_META_TABLES = (RULE_EXEC, TUPLE_TABLE)


class _Record:
    """One tracer record: the observations for one in-flight execution."""

    __slots__ = ("input_id", "input_time", "precs", "lo", "hi")

    def __init__(self) -> None:
        self.input_id: Optional[int] = None
        self.input_time = 0.0
        self.precs: Dict[int, tuple] = {}
        # Associated stage range [lo, hi]; empty when lo > hi.
        self.lo = 1
        self.hi = 0


class Tracer(TraceHooks):
    """Per-node execution tracer writing the ``ruleExec`` table."""

    def __init__(
        self,
        node: P2Node,
        lifetime: Any = 120.0,
        max_entries: Any = 5000,
        tuple_entries: Any = 100000,
    ) -> None:
        self._node = node
        self.registry = TupleRegistry(
            node, lifetime=lifetime, max_entries=tuple_entries
        )
        self._table = node.store.ring(
            Materialize(RULE_EXEC, lifetime, max_entries, [2, 3, 4, 7])
        )
        self._table.on_append.append(self._row_written)
        self._table.on_drop.append(self._row_removed)
        # strand id -> the strand's in-flight records, or None for a
        # strand that is never traced (see :meth:`_lane`).
        self._records: Dict[str, Optional[List[_Record]]] = {}
        # Retired records, reused by the next inputs.
        self._spare: List[_Record] = []
        self.executions_recorded = 0
        # What every hook calls, looked up once.
        self._address = node.address
        self._charge = node.work.charge
        self._append = self._table.append
        self._ids = self.registry._ids
        self._refs = self.registry._refs

        node.hooks = self
        node.registry = self.registry

    # ------------------------------------------------------------------
    # TraceHooks implementation

    def _lane(self, strand: RuleStrand) -> Optional[List[_Record]]:
        """The record list of a strand seen for the first time — None,
        and so never traced, when a trace table triggers it: tracing a
        ruleExec-triggered rule would write more ruleExec rows and
        recurse forever."""
        lane = None if strand.trigger_name in _META_TABLES else []
        self._records[strand.strand_id] = lane
        return lane

    def input_observed(self, strand: RuleStrand, tup: Tuple, when: float) -> None:
        try:
            records = self._records[strand.strand_id]
        except KeyError:
            records = self._lane(strand)
        if records is None:
            return
        self._charge("trace")
        for record in records:
            if record.lo > record.hi:
                break
        else:
            record = self._spare.pop() if self._spare else _Record()
            records.append(record)
        record.lo, record.hi = 1, 1
        tid = self._ids.get(tup)
        record.input_id = self.registry.id_of(tup) if tid is None else tid
        record.input_time = when
        record.precs.clear()

    def precondition_observed(
        self, strand: RuleStrand, stage: int, tup: Tuple, when: float
    ) -> None:
        try:
            records = self._records[strand.strand_id]
        except KeyError:
            records = self._lane(strand)
        if records is None:
            return
        self._charge("trace")
        for record in records:
            if record.lo <= stage <= record.hi:
                break
        else:
            for record in records:
                if record.hi == stage - 1:
                    record.hi = stage
                    break
            else:
                return
        tid = self._ids.get(tup)
        precs = record.precs
        precs[stage] = (self.registry.id_of(tup) if tid is None else tid, when)
        # Tuples flow left to right: fields right of this stage are stale.
        for later in range(stage + 1, strand.num_stages + 1):
            if later in precs:
                del precs[later]

    def output_observed(self, strand: RuleStrand, tup: Tuple, when: float) -> None:
        try:
            records = self._records[strand.strand_id]
        except KeyError:
            records = self._lane(strand)
        if records is None:
            return
        self._charge("trace")
        # The record deepest in the pipeline (the first, on a tie).
        record = None
        for candidate in records:
            if candidate.input_id is not None and (
                record is None or candidate.hi > record.hi
            ):
                record = candidate
        if record is None:
            return
        effect_id = self._ids.get(tup)
        if effect_id is None:
            effect_id = self.registry.id_of(tup)
        rule_id = strand.rule_id
        address = self._address
        append = self._append
        append(
            (address, rule_id, record.input_id, effect_id, record.input_time,
             when, True)
        )
        precs = record.precs
        if precs:
            for stage in sorted(precs):
                prec_id, prec_time = precs[stage]
                append(
                    (address, rule_id, prec_id, effect_id, prec_time, when,
                     False)
                )
        self.executions_recorded += 1

    def stage_completed(self, strand: RuleStrand, stage: int) -> None:
        try:
            records = self._records[strand.strand_id]
        except KeyError:
            records = self._lane(strand)
        if records is None:
            return
        for i, record in enumerate(records):
            if record.lo == stage:
                break
        else:
            return
        record.lo = stage + 1
        if record.lo > strand.num_stages:
            del records[i]
            self._spare.append(record)
        elif record.hi < record.lo:
            # Completing stage i moves the execution *into* stage i+1,
            # even before any stage-i+1 precondition is observed —
            # otherwise the record's range would go empty and the next
            # input would steal it (losing the in-flight execution).
            record.hi = record.lo

    # ------------------------------------------------------------------
    # Reference counting via the ring's values observers

    def _row_written(self, values: tuple, replaced: Optional[tuple]) -> None:
        refs = self._refs
        cause, effect = values[2], values[3]
        if cause in refs:
            refs[cause] += 1
        if effect in refs:
            refs[effect] += 1
        if replaced is not None:
            # Released only now that the replacing row holds its own
            # references: a tid both rows name never drops to zero.
            self.registry.decref(replaced[2])
            self.registry.decref(replaced[3])

    def _row_removed(self, values: tuple, reason) -> None:
        self.registry.decref(values[2])
        self.registry.decref(values[3])

    # ------------------------------------------------------------------

    def pending_records(self, strand_id: str) -> int:
        records = self._records.get(strand_id)
        return len(records) if records else 0

