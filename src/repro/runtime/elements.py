"""Dataflow elements — the operators a rule strand is built from.

P2 compiles each OverLog rule into a *rule strand*: a chain of dataflow
elements (Figure 1 of the paper).  Our planner produces the same shapes:

- :class:`MatchElement` — unifies the trigger tuple against the event
  pattern (the strand's entry point);
- :class:`JoinElement` — probes a materialized table for matches of one
  body predicate (a *stateful* element: it defines a pipeline stage for
  the tracer, per the paper's §2.1.2);
- :class:`SelectElement` — filters bindings through a boolean condition;
- :class:`AssignElement` — computes ``X := expr``;
- :class:`ProjectElement` — evaluates the head arguments into an output
  tuple (or a deletion pattern for ``delete`` rules).

Elements are the strand's *plan*: what each operator matches, probes or
computes, plus the invocation counters introspection exposes (the
``sysElement`` reflection table).  A firing does not call them — the
strand runs one function generated from this plan
(:mod:`repro.runtime.codegen`), which moves the counters itself.  The
evaluating methods below (``match``, ``matches``, ``accepts``, ``apply``,
``project``, ``delete_pattern``) are the reference semantics, written
over a bindings dict with :func:`~repro.overlog.match.match_args` and
:func:`~repro.overlog.expr.evaluate`; ``tests/runtime/test_strand_codegen``
drives them beside the generated function and requires equal results.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Tuple as PyTuple

from repro.errors import EvaluationError, PlannerError
from repro.overlog import ast
from repro.overlog.builtins import EvalContext
from repro.overlog.expr import evaluate, values_equal, _truthy
from repro.overlog.match import match_args
from repro.runtime.table import Table, TableIndex
from repro.runtime.tuples import Tuple

Bindings = Dict[str, Any]


class Element:
    """Base dataflow element: a named operator with an invocation count."""

    kind = "element"

    def __init__(self, label: str) -> None:
        self.label = label
        self.invocations = 0

    def describe(self) -> str:
        return f"{self.kind}:{self.label}"

    def __repr__(self) -> str:
        return f"<{self.describe()}>"


class MatchElement(Element):
    """Entry of a strand: unify the trigger tuple against its pattern.

    ``bind_args=False`` turns the element into an *activation-only*
    match that binds just the location specifier: used for aggregate
    rules triggered by changes to a materialized table, where the
    aggregate must be recomputed over the whole table rather than the
    single delta row (the paper's cs6/os8/bp2 rules depend on this).
    """

    kind = "match"

    def __init__(self, pattern: ast.Functor, bind_args: bool = True) -> None:
        super().__init__(pattern.name)
        self.pattern = pattern
        self.bind_args = bind_args

    def match(self, tup: Tuple) -> Optional[Bindings]:
        self.invocations += 1
        if tup.name != self.pattern.name:
            return None
        if self.bind_args:
            return match_args(self.pattern.args, tup.values, {})
        if not tup.values:
            return None
        return match_args(self.pattern.args[:1], tup.values[:1], {})


class JoinElement(Element):
    """Probe a table for tuples matching a body predicate.

    ``stage`` is the 1-based pipeline stage index used by the execution
    tracer to attribute precondition observations (§2.1.2).

    When the planner determined that some pattern columns are already
    bound at this pipeline stage, it passes the matching
    :class:`~repro.runtime.table.TableIndex` plus ``key_sources`` — one
    ``(var_name, const_value)`` pair per indexed column, aligned with
    ``index.positions`` — and the probe narrows to the index bucket
    instead of scanning the whole table.  Candidates still pass through
    ``match_args``, so the index only prunes; it never admits a row the
    scan path would reject.

    ``probes`` counts every row *examined* (bucket or scan) and is the
    single authoritative probe counter: the strand derives its
    ``join_probe`` / ``join_indexed`` work charges from its per-firing
    delta rather than keeping a second tally.
    """

    kind = "join"

    def __init__(
        self,
        pattern: ast.Functor,
        table: Table,
        stage: int,
        index: Optional[TableIndex] = None,
        key_sources: Optional[List[PyTuple]] = None,
    ) -> None:
        super().__init__(f"{pattern.name}[{stage}]")
        self.pattern = pattern
        self.table = table
        self.stage = stage
        self.index = index
        self.key_sources = tuple(key_sources or ())
        self.probes = 0

    @property
    def uses_index(self) -> bool:
        return self.index is not None

    def matches(
        self, bindings: Bindings
    ) -> Iterator[PyTuple]:
        """Yield (table_tuple, extended_bindings) for every match."""
        self.invocations += 1
        if self.index is not None:
            key = tuple(
                bindings[var] if var is not None else const
                for var, const in self.key_sources
            )
            candidates = self.table.probe_index(self.index, key)
        else:
            candidates = self.table.scan()
        for tup in candidates:
            self.probes += 1
            extended = match_args(self.pattern.args, tup.values, bindings)
            if extended is not None:
                yield tup, extended


class SelectElement(Element):
    """Filter bindings through a boolean condition."""

    kind = "select"

    def __init__(self, cond: ast.Cond) -> None:
        super().__init__(str(cond.expr))
        self.cond = cond

    def accepts(self, bindings: Bindings, ctx: EvalContext) -> bool:
        self.invocations += 1
        return _truthy(evaluate(self.cond.expr, bindings, ctx))


class AssignElement(Element):
    """Bind a new variable from an expression (``X := expr``).

    If the variable is already bound, the assignment degrades to an
    equality filter — P2's behaviour for repeated bindings.
    """

    kind = "assign"

    def __init__(self, assign: ast.Assign) -> None:
        super().__init__(f"{assign.var}:={assign.expr}")
        self.assign = assign

    def apply(
        self, bindings: Bindings, ctx: EvalContext
    ) -> Optional[Bindings]:
        self.invocations += 1
        value = evaluate(self.assign.expr, bindings, ctx)
        var = self.assign.var
        if var in bindings:
            return bindings if values_equal(bindings[var], value) else None
        out = dict(bindings)
        out[var] = value
        return out


class ProjectElement(Element):
    """Evaluate head arguments into an output tuple.

    For ``delete`` rules, unbound head variables become None wildcards in
    the produced deletion pattern.
    """

    kind = "project"

    def __init__(self, head: ast.Functor, delete: bool) -> None:
        super().__init__(head.name)
        self.head = head
        self.delete = delete

    def project(self, bindings: Bindings, ctx: EvalContext) -> Tuple:
        self.invocations += 1
        values = tuple([evaluate(arg, bindings, ctx) for arg in self.head.args])
        return Tuple(self.head.name, values)

    def delete_pattern(
        self, bindings: Bindings, ctx: EvalContext
    ) -> PyTuple:
        """(location, values-with-None-wildcards) for a delete action."""
        self.invocations += 1
        values: List[Any] = []
        for arg in self.head.args:
            try:
                values.append(evaluate(arg, bindings, ctx))
            except EvaluationError:
                if isinstance(arg, ast.Var):
                    values.append(None)  # wildcard
                else:
                    raise
        location = values[0]
        if location is None:
            raise PlannerError(
                f"delete rule for {self.head.name!r} has an unbound "
                "location specifier"
            )
        return location, tuple(values)
