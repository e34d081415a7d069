"""The planner: OverLog rules to executable rule strands.

Mirrors P2's planner (§2 of the paper): each rule becomes one or more
*rule strands* — element chains triggered by one body predicate, each
lowered to one Python function (:mod:`repro.runtime.codegen`).

Trigger selection implements P2's delta evaluation:

- a body predicate that is **not** a materialized table is an *event*;
  a rule may contain at most one event, and that event is the trigger;
- ``periodic(...)`` is a built-in event: the node installs a private
  timer per strand (the paper's Figure 4 benchmark counts exactly these);
- a rule whose body predicates are **all** tables compiles to one strand
  per predicate, each triggered by insertions into that table.

Within a strand, the remaining body terms are ordered greedily: joins
keep their source order, while each selection/assignment runs as early
as its variables are bound (P2 does the same reordering).

Index selection: for each join, the planner computes which pattern
columns are already bound when the probe runs — constants, symbolic
constants, and variables bound by earlier pipeline stages — and asks
the table for a hash index over exactly those columns
(:meth:`repro.runtime.table.Table.index_on`).  A join with no bound
column falls back to a full scan.  The module-level default can be
switched off (``scan_joins()``) so tests can differentially compare
both evaluation paths; per-planner overrides take precedence.

Joins keep source order: reordering would change how often interleaved
assignments run (an ``X := f_rand()`` placed between two joins is
evaluated once per outer derivation, wherever the author put it) and
renumber the tracer's pipeline stages.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Set, Tuple as PyTuple

from repro.errors import PlannerError
from repro.overlog import ast
from repro.overlog.program import Program
from repro.runtime.codegen import compile_strand
from repro.runtime.elements import (
    AssignElement,
    Element,
    JoinElement,
    MatchElement,
    ProjectElement,
    SelectElement,
)
from repro.runtime.store import TableStore
from repro.runtime.strand import AggregateSpec, RuleStrand

BUILTIN_EVENTS = ("periodic",)

USE_INDEXED_JOINS = True
"""Module default for planners that were not given an explicit
``use_indexes``; read at plan time so :func:`scan_joins` affects
programs installed inside its scope."""


@contextmanager
def scan_joins() -> Iterator[None]:
    """Force scan-only join evaluation for programs planned inside.

    The differential test harness compiles every workload twice — once
    under this context, once without — and asserts both evaluations are
    observably identical.
    """
    global USE_INDEXED_JOINS
    previous = USE_INDEXED_JOINS
    USE_INDEXED_JOINS = False
    try:
        yield
    finally:
        USE_INDEXED_JOINS = previous


@dataclass
class CompiledProgram:
    """The result of planning one program on one node."""

    program: Program
    strands: List[RuleStrand] = field(default_factory=list)
    table_names: List[str] = field(default_factory=list)

    @property
    def name(self) -> str:
        return self.program.name


class Planner:
    """Compiles validated programs against a node's table store."""

    def __init__(
        self,
        store: TableStore,
        node_label: str = "node",
        use_indexes: Optional[bool] = None,
    ) -> None:
        self._store = store
        self._node_label = node_label
        self._counter = 0
        self._use_indexes = use_indexes

    def _indexes_enabled(self) -> bool:
        if self._use_indexes is not None:
            return self._use_indexes
        return USE_INDEXED_JOINS

    def plan(self, program: Program) -> CompiledProgram:
        """Materialize the program's tables and compile its rules."""
        compiled = CompiledProgram(program)
        for decl in program.materializations:
            self._store.materialize(decl)
            compiled.table_names.append(decl.name)
        for rule in program.rules:
            compiled.strands.extend(self._plan_rule(rule, program.name))
        return compiled

    # ------------------------------------------------------------------

    def _plan_rule(self, rule: ast.Rule, program_name: str) -> List[RuleStrand]:
        functors = rule.body_functors()
        events = [
            f
            for f in functors
            if f.name in BUILTIN_EVENTS or not self._store.has(f.name)
        ]
        label = rule.rule_id or str(rule.head)

        if len(events) > 1:
            names = sorted({e.name for e in events})
            raise PlannerError(
                f"rule {label!r} has {len(events)} event predicates "
                f"({', '.join(names)}); at most one non-materialized "
                "predicate is allowed per rule — materialize the others"
            )
        if events:
            return [self._make_strand(rule, events[0], program_name)]
        # Delta rules: all body predicates are tables; every insertion
        # into any of them can complete a derivation.
        return [
            self._make_strand(rule, trigger, program_name)
            for trigger in functors
        ]

    def _make_strand(
        self, rule: ast.Rule, trigger: ast.Functor, program_name: str
    ) -> RuleStrand:
        label = rule.rule_id or rule.head.name
        self._counter += 1
        strand_id = f"{program_name}/{label}#{self._counter}"

        periodic = self._periodic_spec(rule, trigger, label)

        # Aggregate rules triggered by a table change recompute over the
        # whole table: the trigger becomes activation-only (binds just
        # the location) and the trigger predicate re-enters the body as
        # a join (see MatchElement.bind_args).
        aggregate = self._aggregate_spec(rule)
        rescan_trigger = (
            aggregate is not None
            and trigger.name not in BUILTIN_EVENTS
            and self._store.has(trigger.name)
        )

        # Order the remaining body terms: functors and assignments keep
        # source order (an assignment calling f_rand()/f_now() must run
        # once per derivation, exactly where the rule author put it —
        # hoisting it above a join would evaluate it once per trigger);
        # pure conditions float as early as their variables are bound.
        if rescan_trigger:
            pending: List[ast.BodyTerm] = list(rule.body)
            bound = {
                v
                for v in trigger.location.variables()
                if not v.startswith("_")
            }
        else:
            pending = [term for term in rule.body if term is not trigger]
            bound = {
                v for v in trigger.variables() if not v.startswith("_")
            }
        ops: List[Element] = []
        stage = 0
        while pending:
            chosen: Optional[ast.BodyTerm] = None
            for term in pending:
                if isinstance(term, ast.Cond):
                    if term.expr.variables() <= bound:
                        chosen = term
                        break
            if chosen is None:
                # Next functor or ready assignment, in source order.
                for term in pending:
                    if isinstance(term, ast.Assign):
                        if term.expr.variables() <= bound:
                            chosen = term
                            break
                        continue  # a later join must bind its inputs
                    if isinstance(term, ast.Functor):
                        chosen = term
                        break
            if chosen is None:
                unready = ", ".join(str(t) for t in pending)
                raise PlannerError(
                    f"rule {label!r}: cannot order body terms — "
                    f"unbound variables in: {unready}"
                )
            pending.remove(chosen)
            if isinstance(chosen, ast.Functor):
                if chosen.name in BUILTIN_EVENTS or not self._store.has(
                    chosen.name
                ):
                    raise PlannerError(
                        f"rule {label!r}: predicate {chosen.name!r} is not "
                        "a materialized table and cannot be joined"
                    )
                stage += 1
                ops.append(self._make_join(chosen, stage, bound))
                bound |= {
                    v for v in chosen.variables() if not v.startswith("_")
                }
            elif isinstance(chosen, ast.Assign):
                ops.append(AssignElement(chosen))
                bound.add(chosen.var)
            else:
                ops.append(SelectElement(chosen))

        match = MatchElement(trigger, bind_args=not rescan_trigger)
        project = ProjectElement(rule.head, rule.delete)
        source, bind = compile_strand(
            f"{program_name}/{label}", match, ops, project, aggregate
        )
        return RuleStrand(
            rule=rule,
            strand_id=strand_id,
            program_name=program_name,
            match=match,
            ops=ops,
            project=project,
            aggregate=aggregate,
            source=source,
            bind=bind,
            periodic=periodic,
        )

    @staticmethod
    def _bound_positions(
        functor: ast.Functor, bound: Set[str]
    ) -> List[PyTuple]:
        """Pattern columns whose probe value is known before the join.

        Returns ``(position, var_name, const_value)`` triples: constants
        and symbolic constants are known at plan time; a variable is
        known when an earlier stage bound it (a variable first occurring
        inside this same pattern is not — it binds during the match).
        """
        sources: List[PyTuple] = []
        for position, arg in enumerate(functor.args):
            if isinstance(arg, ast.Const):
                sources.append((position, None, arg.value))
            elif isinstance(arg, ast.SymbolicConst):
                # Unresolved symbolic constants match as their own name.
                sources.append((position, None, arg.name))
            elif (
                isinstance(arg, ast.Var)
                and not arg.name.startswith("_")
                and arg.name in bound
            ):
                sources.append((position, arg.name, None))
        return sources

    def _make_join(
        self, functor: ast.Functor, stage: int, bound: Set[str]
    ) -> JoinElement:
        """A join element, indexed on the columns bound at this stage."""
        table = self._store.get(functor.name)
        if self._indexes_enabled():
            sources = self._bound_positions(functor, bound)
            if sources:
                # Positions ascend (enumerate order), matching the
                # canonical order of Table.index_on.
                index = table.index_on([p for p, _, _ in sources])
                key_sources = [(var, const) for _, var, const in sources]
                return JoinElement(
                    functor, table, stage, index=index, key_sources=key_sources
                )
        return JoinElement(functor, table, stage)

    def _periodic_spec(
        self, rule: ast.Rule, trigger: ast.Functor, label: str
    ) -> Optional[PyTuple]:
        if trigger.name != "periodic":
            return None
        if len(trigger.args) < 3:
            raise PlannerError(
                f"rule {label!r}: periodic needs (loc, nonce, period)"
            )
        period_arg = trigger.args[2]
        if isinstance(period_arg, ast.Const):
            period = period_arg.value
        elif isinstance(period_arg, ast.SymbolicConst):
            raise PlannerError(
                f"rule {label!r}: periodic period {period_arg.name!r} was "
                "never bound to a value (pass bindings= when compiling)"
            )
        else:
            raise PlannerError(
                f"rule {label!r}: periodic period must be a constant"
            )
        if not isinstance(period, (int, float)) or period <= 0:
            raise PlannerError(
                f"rule {label!r}: periodic period must be positive, "
                f"got {period!r}"
            )
        nonce_var = trigger.args[1]
        nonce = nonce_var.name if isinstance(nonce_var, ast.Var) else None
        return (nonce, float(period))

    def _aggregate_spec(self, rule: ast.Rule) -> Optional[AggregateSpec]:
        for index, arg in enumerate(rule.head.args):
            if isinstance(arg, ast.Aggregate):
                return AggregateSpec(index, arg.func, arg.var)
        return None
