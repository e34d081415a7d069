"""Compiled rule strands: the executable form of one OverLog rule.

A strand is the chain of dataflow elements the planner produced for one
(rule, trigger-predicate) pair, as in the paper's Figure 1, together
with the Python function :mod:`repro.runtime.codegen` generated from
that chain.  Firing a strand with a trigger tuple runs the function: it
enumerates all derivations of the rule body by nested loops over the
join probes, then projects the head: the tuples (possibly after
aggregation) or delete actions that the node routes.  A derivation
whose condition, assignment or head raises :class:`EvaluationError` is
abandoned and counted in :attr:`RuleStrand.eval_errors`; the firing
goes on.

Tracing: the strand reports to an optional hooks object — input
observation, per-stage precondition observations, output observations,
and stage completions (ascending, at end of firing, matching P2's pull
dataflow where only the first join draws from the event queue).  The
tracer (repro.introspect.tracer) implements these hooks to reconstruct
``ruleExec`` rows, including under pipelined interleavings driven
through the same API.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple as PyTuple, Union

from repro.errors import EvaluationError
from repro.histogram import HistogramData
from repro.overlog import ast
from repro.overlog.builtins import EvalContext
from repro.runtime.elements import (
    Element,
    JoinElement,
    MatchElement,
    ProjectElement,
)
from repro.runtime.aggregates import apply_aggregate
from repro.runtime.tuples import Tuple
from repro.runtime.work import WorkModel


@dataclass
class DeleteAction:
    """Delete tuples matching ``pattern`` (None = wildcard) at ``location``."""

    name: str
    location: Any
    pattern: PyTuple


#: What a firing hands the node: a head :class:`Tuple` to route to its
#: location (insert or trigger there), or a :class:`DeleteAction`.
Action = Union[Tuple, DeleteAction]


@dataclass
class AggregateSpec:
    """Placement of a head aggregate: which head arg, func, and variable."""

    index: int
    func: str
    var: Optional[str]


class TraceHooks:
    """No-op trace hooks; the tracer subclasses this."""

    def input_observed(self, strand: "RuleStrand", tup: Tuple, when: float) -> None:
        pass

    def precondition_observed(
        self, strand: "RuleStrand", stage: int, tup: Tuple, when: float
    ) -> None:
        pass

    def output_observed(self, strand: "RuleStrand", tup: Tuple, when: float) -> None:
        pass

    def stage_completed(self, strand: "RuleStrand", stage: int) -> None:
        pass


class RuleStrand:
    """One compiled (rule, trigger) pair, executable against a node."""

    def __init__(
        self,
        rule: ast.Rule,
        strand_id: str,
        program_name: str,
        match: MatchElement,
        ops: List[Element],
        project: ProjectElement,
        aggregate: Optional[AggregateSpec],
        source: str,
        bind: Callable[["RuleStrand"], Callable[..., List[Action]]],
        periodic: Optional[PyTuple] = None,
    ) -> None:
        self.rule = rule
        self.strand_id = strand_id
        self.program_name = program_name
        self.match = match
        self.ops = ops
        self.project = project
        self.aggregate = aggregate
        # (nonce_var_name, period_seconds) when triggered by periodic().
        self.periodic = periodic
        # Overload-protection priority class ("data"/"monitor"/"trace");
        # set from the owning Program's role at install time.
        self.overload_class = "data"
        #: Stateful (join) elements; pipeline stages = max(1, joins).
        self.joins = sum(isinstance(op, JoinElement) for op in ops)
        self.num_stages = max(1, self.joins)
        self.firings = 0
        self.outputs = 0
        #: Derivations abandoned because a condition, an assignment or
        #: the head raised :class:`~repro.errors.EvaluationError`.
        self.eval_errors = 0
        #: Charged work per firing and rows the joins examined per
        #: firing that examined any, kept by :meth:`fire_timed` (None
        #: until its first firing); the telemetry registry reads them as
        #: ``rule_duration_seconds`` and ``join_rows_examined``.
        self.work_time: Optional[HistogramData] = None
        self.rows_examined: Optional[HistogramData] = None
        #: Text of the function generated for this strand.
        self.source = source
        self._fire = bind(self)

    @property
    def rule_id(self) -> str:
        return self.rule.rule_id or self.strand_id

    @property
    def trigger_name(self) -> str:
        return self.match.pattern.name

    def elements(self) -> List[Element]:
        """All elements in strand order (for introspection)."""
        return [self.match] + list(self.ops) + [self.project]

    # ------------------------------------------------------------------

    def fire(
        self,
        trigger: Tuple,
        ctx: EvalContext,
        hooks: Optional[TraceHooks] = None,
        charge: Optional[Callable[[str, int], None]] = None,
    ) -> List[Action]:
        """Run the strand on ``trigger``; returns the actions produced."""
        return self._fire(trigger, ctx, hooks, charge)

    def fire_timed(
        self,
        trigger: Tuple,
        ctx: EvalContext,
        hooks: Optional[TraceHooks],
        work: WorkModel,
    ) -> List[Action]:
        """:meth:`fire`, charging the node's ``work`` model, and adding
        the firing to :attr:`work_time` — the advance of the work
        micro-clock, so a deterministic charged-work duration — and, for
        a strand with joins, to :attr:`rows_examined` (the firing's
        ``join_probe`` + ``join_indexed`` charges).  A node with
        telemetry on fires through this; nothing else is recorded per
        firing."""
        start = work._micro_offset
        if self.joins:
            counts = work._counts
            rows = counts.get("join_probe", 0) + counts.get("join_indexed", 0)
            actions = self._fire(trigger, ctx, hooks, work.charge)
            rows = counts.get("join_probe", 0) + counts.get("join_indexed", 0) - rows
            if rows:
                if self.rows_examined is None:
                    self.rows_examined = HistogramData()
                self.rows_examined.observe(rows)
        else:
            actions = self._fire(trigger, ctx, hooks, work.charge)
        if self.work_time is None:
            self.work_time = HistogramData()
        self.work_time.observe(work._micro_offset - start)
        return actions

    def fold_groups(self, groups: Dict[PyTuple, List[Any]]) -> List[Tuple]:
        """Head tuples of an aggregate rule, one per group in first-seen
        order (the generated function's last step for such a rule).

        ``groups`` maps the non-aggregate head arguments to the values to
        fold.  A group whose fold is undefined (``min`` of nothing) yields
        no tuple; one whose fold fails (``min`` over incomparable values)
        is dropped and counted in :attr:`eval_errors`.
        """
        spec = self.aggregate
        name = self.project.head.name
        out: List[Tuple] = []
        for key, values in groups.items():
            try:
                folded = apply_aggregate(spec.func, values)
            except EvaluationError:
                self.eval_errors += 1
                continue
            if folded is not None:
                out.append(
                    Tuple(name, key[: spec.index] + (folded,) + key[spec.index :])
                )
        return out

    def __repr__(self) -> str:
        return (
            f"<RuleStrand {self.rule_id} trigger={self.trigger_name} "
            f"ops={len(self.ops)}>"
        )
