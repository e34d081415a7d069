"""Compiled rule strands: the executable form of one OverLog rule.

A strand is the chain of dataflow elements the planner produced for one
(rule, trigger-predicate) pair, as in the paper's Figure 1.  Firing a
strand with a trigger tuple enumerates all derivations of the rule body
by backtracking through the join elements, then projects head tuples
(possibly after aggregation) into emit/delete actions that the node
routes.

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
from repro.overlog import ast
from repro.overlog.builtins import EvalContext
from repro.overlog.expr import evaluate
from repro.runtime.elements import (
    AssignElement,
    Element,
    JoinElement,
    MatchElement,
    ProjectElement,
    SelectElement,
)
from repro.runtime.aggregates import apply_aggregate
from repro.runtime.tuples import Tuple

Bindings = Dict[str, Any]


@dataclass
class EmitAction:
    """Route this tuple to its location (insert/trigger there)."""

    tuple: Tuple


@dataclass
class DeleteAction:
    """Delete tuples matching ``pattern`` (None = wildcard) at ``location``."""

    name: str
    location: Any
    pattern: PyTuple


Action = Union[EmitAction, DeleteAction]


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


class CompositeTraceHooks(TraceHooks):
    """Fan one hook stream out to several consumers.

    The tracer and the telemetry plane (:mod:`repro.obs.hooks`) both
    ride the same strand seam; when a node has more than one consumer
    its ``hooks`` attribute is one of these.
    """

    def __init__(self, hooks: List[TraceHooks]) -> None:
        self.hooks = list(hooks)

    def input_observed(self, strand: "RuleStrand", tup: Tuple, when: float) -> None:
        for hook in self.hooks:
            hook.input_observed(strand, tup, when)

    def precondition_observed(
        self, strand: "RuleStrand", stage: int, tup: Tuple, when: float
    ) -> None:
        for hook in self.hooks:
            hook.precondition_observed(strand, stage, tup, when)

    def output_observed(self, strand: "RuleStrand", tup: Tuple, when: float) -> None:
        for hook in self.hooks:
            hook.output_observed(strand, tup, when)

    def stage_completed(self, strand: "RuleStrand", stage: int) -> None:
        for hook in self.hooks:
            hook.stage_completed(strand, stage)


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
        self.firings = 0
        self.outputs = 0

    @property
    def rule_id(self) -> str:
        return self.rule.rule_id or self.strand_id

    @property
    def trigger_name(self) -> str:
        return self.match.pattern.name

    @property
    def num_stages(self) -> int:
        """Pipeline stages = stateful (join) elements, at least 1."""
        joins = sum(1 for op in self.ops if isinstance(op, JoinElement))
        return max(1, joins)

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
        bindings = self.match.match(trigger)
        if charge:
            charge("match", 1)
        if bindings is None:
            return []
        self.firings += 1
        if hooks:
            hooks.input_observed(self, trigger, ctx.now())

        results: List[Bindings] = []
        actions: List[Action] = []

        def solve(index: int, current: Bindings) -> None:
            if index == len(self.ops):
                results.append(current)
                if self.aggregate is None:
                    action = self._project_one(current, ctx)
                    if action is not None:
                        actions.append(action)
                        if hooks and isinstance(action, EmitAction):
                            hooks.output_observed(
                                self, action.tuple, ctx.now()
                            )
                return
            op = self.ops[index]
            if isinstance(op, JoinElement):
                # The element's own ``probes`` counter is the single
                # source of truth for rows examined; the work charge is
                # derived from its delta so profiling monitors and the
                # work model can never disagree.
                probes_before = op.probes
                for tup, extended in op.matches(current):
                    if hooks:
                        hooks.precondition_observed(
                            self, op.stage, tup, ctx.now()
                        )
                    solve(index + 1, extended)
                if charge:
                    charge("join", 1)
                    examined = op.probes - probes_before
                    charge(
                        "join_indexed" if op.uses_index else "join_probe",
                        max(1, examined),
                    )
            elif isinstance(op, SelectElement):
                if charge:
                    charge("select", 1)
                try:
                    ok = op.accepts(current, ctx)
                except EvaluationError:
                    ok = False
                if ok:
                    solve(index + 1, current)
            elif isinstance(op, AssignElement):
                if charge:
                    charge("assign", 1)
                extended = op.apply(current, ctx)
                if extended is not None:
                    solve(index + 1, extended)
            else:  # pragma: no cover - planner only emits the above
                raise TypeError(f"unexpected element {op!r}")

        solve(0, bindings)

        if self.aggregate is not None:
            for action in self._project_aggregated(bindings, results, ctx):
                actions.append(action)
                if hooks and isinstance(action, EmitAction):
                    hooks.output_observed(self, action.tuple, ctx.now())

        if hooks:
            for stage in range(1, self.num_stages + 1):
                hooks.stage_completed(self, stage)
        self.outputs += len(actions)
        if charge:
            charge("project", max(1, len(actions)))
        return actions

    # ------------------------------------------------------------------

    def _project_one(
        self, bindings: Bindings, ctx: EvalContext
    ) -> Optional[Action]:
        if self.rule.delete:
            location, pattern = self.project.delete_pattern(bindings, ctx)
            return DeleteAction(self.project.head.name, location, pattern)
        try:
            tup = self.project.project(bindings, ctx)
        except EvaluationError:
            return None
        return EmitAction(tup)

    def _project_aggregated(
        self,
        trigger_bindings: Bindings,
        results: List[Bindings],
        ctx: EvalContext,
    ) -> List[Action]:
        """Group results by the non-aggregate head args and fold.

        When there are no results but every non-aggregate head argument
        is computable from the trigger bindings alone, a ``count`` rule
        still emits a zero row — the paper's rule sr8 relies on observing
        ``count == 0`` for a fresh snapshot marker.
        """
        assert self.aggregate is not None
        spec = self.aggregate
        head_args = self.project.head.args

        groups: Dict[PyTuple, List[Any]] = {}
        order: List[PyTuple] = []
        for bindings in results:
            try:
                key = tuple(
                    evaluate(arg, bindings, ctx)
                    for i, arg in enumerate(head_args)
                    if i != spec.index
                )
            except EvaluationError:
                continue
            if key not in groups:
                groups[key] = []
                order.append(key)
            if spec.var is not None:
                groups[key].append(bindings[spec.var])
            else:
                groups[key].append(1)

        if not groups:
            try:
                key = tuple(
                    evaluate(arg, trigger_bindings, ctx)
                    for i, arg in enumerate(head_args)
                    if i != spec.index
                )
                groups[key] = []
                order.append(key)
            except EvaluationError:
                return []

        actions: List[Action] = []
        for key in order:
            folded = apply_aggregate(spec.func, groups[key])
            if folded is None:
                continue
            values: List[Any] = []
            position = 0
            for i in range(len(head_args)):
                if i == spec.index:
                    values.append(folded)
                else:
                    values.append(key[position])
                    position += 1
            actions.append(
                EmitAction(Tuple(self.project.head.name, tuple(values)))
            )
        return actions

    def __repr__(self) -> str:
        return (
            f"<RuleStrand {self.rule_id} trigger={self.trigger_name} "
            f"ops={len(self.ops)}>"
        )
