"""Strand code generation: one Python function per rule strand.

The planner lowers a rule to a chain of elements (the plan); this module
lowers the plan the rest of the way, to the function
:meth:`repro.runtime.strand.RuleStrand.fire` runs.  Everything the
firing would otherwise decide per tuple is decided here, once:

- OverLog variables are Python locals.  Walking the plan in order gives
  the set of variables bound at every point, so each occurrence is
  emitted as what it is there — an assignment (first occurrence), a
  ``values_equal`` test (repeat), nothing (``_``-prefixed), or a raising
  call (unbound; a ``None`` wildcard in a delete head);
- a join is a ``for`` over ``table.probe_index(index, key)`` or
  ``table.scan()`` with the key built from locals; a condition or an
  assignment is a ``try``/``if`` at the depth the planner placed it;
- expressions are inlined by :func:`repro.overlog.expr.emit_expr` and
  call the value helpers of that module;
- counters, work charges and trace-hook calls are emitted at the points
  and in the order the element-by-element evaluation made them, so
  ``WorkModel`` totals, the micro-clock every hook timestamp reads and
  ``sysElement`` are unchanged.  Hook calls sit behind
  ``if hooks is not None`` — untraced firings pay one test per site.

The source never names a relation, a constant or a table: those reach
the function as closure cells (``bind(strand, m, p, k0, j1, t1, ...)``),
so every node planning the same rule — and every rule of the same
shape — produces the same text.  :func:`compile_strand` compiles each
distinct text once per process, in one shared globals namespace, and
registers it with :mod:`linecache` under a pseudo-filename so
tracebacks through a firing print the generated line.
"""

from __future__ import annotations

import linecache
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple as PyTuple

from repro.errors import EvaluationError, PlannerError
from repro.overlog import ast
from repro.overlog.expr import EMITTED_NAMES, emit_expr, emit_tuple
from repro.overlog.match import IGNORE_PREFIX
from repro.runtime.elements import (
    AssignElement,
    Element,
    JoinElement,
    MatchElement,
    ProjectElement,
    SelectElement,
)
from repro.runtime.strand import AggregateSpec, DeleteAction
from repro.runtime.tuples import Tuple

FireFn = Callable[[Tuple, Any, Any, Any], list]

#: Globals of every generated function.
_NAMESPACE: Dict[str, Any] = dict(
    EMITTED_NAMES,
    EvaluationError=EvaluationError,
    PlannerError=PlannerError,
    Tuple=Tuple,
    DeleteAction=DeleteAction,
)

#: source text -> (that text, its compiled ``bind`` function).  Keeping
#: the key as a value lets every strand share one string.  Grows with
#: the distinct plan shapes a process has seen, not with its nodes,
#: relations or constants.
_COMPILED: Dict[str, PyTuple[str, Callable[..., FireFn]]] = {}


def compile_strand(
    label: str,
    match: MatchElement,
    ops: Sequence[Element],
    project: ProjectElement,
    aggregate: Optional[AggregateSpec],
) -> PyTuple[str, Callable[[Any], FireFn]]:
    """``(source, bind)`` for one plan; ``bind(strand)`` is its ``fire``.

    ``label`` only names the pseudo-file of a newly compiled text.
    """
    generator = _Generator(match, ops, project, aggregate)
    source = generator.source()
    cached = _COMPILED.get(source)
    if cached is None:
        filename = f"<strand {label}#{len(_COMPILED)}>"
        try:
            code = compile(source, filename, "exec")
        except SyntaxError as exc:  # e.g. more nested joins than CPython allows
            raise PlannerError(
                f"rule {label!r} is too deeply nested to compile: {exc.msg}"
            ) from exc
        scope: Dict[str, Any] = {}
        exec(code, _NAMESPACE, scope)
        cached = _COMPILED[source] = (source, scope["bind"])
        linecache.cache[filename] = (
            len(source), None, source.splitlines(True), filename
        )
    source, bind = cached
    env = generator.env
    return source, lambda strand: bind(strand, *env)


class _Generator:
    """Emits the source for one plan and collects what it closes over."""

    def __init__(
        self,
        match: MatchElement,
        ops: Sequence[Element],
        project: ProjectElement,
        aggregate: Optional[AggregateSpec],
    ) -> None:
        self.match = match
        self.ops = ops
        self.project = project
        self.aggregate = aggregate
        self.lines: List[str] = []
        self.depth = 2
        #: ``bind``'s parameters after ``strand``, and their values.
        self.params: List[str] = ["m", "p"]
        self.env: List[Any] = [match, project]
        #: OverLog variable -> Python local, for the variables bound at
        #: the point being emitted.
        self.bound: Dict[str, str] = {}
        self.renamed = 0
        self.consts = 0

    # -- closure cells and locals ---------------------------------------

    def cell(self, name: str, value: Any) -> str:
        self.params.append(name)
        self.env.append(value)
        return name

    def const(self, value: Any) -> str:
        self.consts += 1
        return self.cell(f"k{self.consts}", value)

    def bind_var(self, var: str) -> str:
        """Mark ``var`` bound from here on; returns its local."""
        if var.isascii() and var.isidentifier():
            name = f"v_{var}"
        else:  # Python folds some distinct non-ASCII names together
            self.renamed += 1
            name = f"u_{self.renamed}"
        self.bound[var] = name
        return name

    def expr(self, node: ast.Expr) -> str:
        return emit_expr(node, self.bound.get, self.const)

    def emit(self, text: str) -> None:
        self.lines.append("    " * self.depth + text)

    # -- the function ----------------------------------------------------

    def source(self) -> str:
        self.emit_match()
        self.emit("actions = []")
        if self.aggregate is not None:
            self.emit("results = []")
        trigger_bound = dict(self.bound)
        self.emit_ops(0)
        if self.aggregate is not None:
            self.emit_fold(trigger_bound)
        self.emit("if hooks is not None:")
        self.emit("    for stage in range(1, strand.num_stages + 1):")
        self.emit("        hooks.stage_completed(strand, stage)")
        self.emit("strand.outputs += len(actions)")
        self.emit("if charge is not None:")
        self.emit("    charge('project', len(actions) or 1)")
        self.emit("return actions")
        params = ", ".join(["strand"] + self.params)
        header = [
            f"def bind({params}):",
            "    def fire(trigger, ctx, hooks, charge):",
        ]
        return "\n".join(header + self.lines + ["    return fire", ""])

    def unify(
        self, args: Sequence[ast.Expr], row: str
    ) -> PyTuple[List[str], Dict[str, str]]:
        """``(tests, binds)``: the tests under which ``row`` (a values
        tuple of the right length) matches ``args``, and the column each
        variable new in this pattern then takes its value from."""
        tests: List[str] = []
        binds: Dict[str, str] = {}
        for position, arg in enumerate(args):
            column = f"{row}[{position}]"
            if isinstance(arg, ast.Var):
                if arg.name.startswith(IGNORE_PREFIX):
                    continue
                known = self.bound.get(arg.name) or binds.get(arg.name)
                if known is None:
                    binds[arg.name] = column
                else:
                    tests.append(f"values_equal({known}, {column})")
            elif isinstance(arg, ast.Const):
                tests.append(f"values_equal({self.const(arg.value)}, {column})")
            elif isinstance(arg, ast.SymbolicConst):
                # Unresolved symbolic constants compare as their own name.
                tests.append(f"values_equal({self.const(arg.name)}, {column})")
            else:  # the validator forbids it in body functors
                tests.append("False")
        return tests, binds

    def emit_binds(self, binds: Dict[str, str]) -> None:
        for var, column in binds.items():
            self.emit(f"{self.bind_var(var)} = {column}")

    def emit_match(self) -> None:
        pattern = self.match.pattern
        self.emit("m.invocations += 1")
        self.emit("x0 = trigger.values")
        if self.match.bind_args:
            args = pattern.args
            arity = f"len(x0) == {len(args)}"
        else:
            # Activation-only: just the location specifier binds.
            args = pattern.args[:1]
            arity = "len(x0) >= 1" if args else "False"
        tests, binds = self.unify(args, "x0")
        tests = [f"trigger.name == {self.const(pattern.name)}", arity] + tests
        self.emit("matched = " + " and ".join(tests))
        self.emit("if charge is not None:")
        self.emit("    charge('match', 1)")
        self.emit("if not matched:")
        self.emit("    return []")
        self.emit_binds(binds)
        self.emit("strand.firings += 1")
        self.emit("if hooks is not None:")
        self.emit("    hooks.input_observed(strand, trigger, ctx.now())")

    def emit_ops(self, position: int) -> None:
        if position == len(self.ops):
            self.emit_leaf()
            return
        op = self.ops[position]
        n = position + 1
        if isinstance(op, JoinElement):
            join = self.cell(f"j{n}", op)
            table = self.cell(f"t{n}", op.table)
            self.emit(f"{join}.invocations += 1")
            if op.index is not None:
                key = emit_tuple(
                    self.bound[var] if var is not None else self.const(value)
                    for var, value in op.key_sources
                )
                index = self.cell(f"i{n}", op.index)
                self.emit(f"rows{n} = {table}.probe_index({index}, {key})")
                charged = "join_indexed"
            else:
                self.emit(f"rows{n} = list({table}.scan())")
                charged = "join_probe"
            self.emit(f"for r{n} in rows{n}:")
            self.depth += 1
            self.emit(f"x{n} = r{n}.values")
            tests, binds = self.unify(op.pattern.args, f"x{n}")
            misses = [f"len(x{n}) != {len(op.pattern.args)}"]
            misses += [f"not {test}" for test in tests]
            self.emit("if " + " or ".join(misses) + ":")
            self.emit("    continue")
            self.emit_binds(binds)
            self.emit("if hooks is not None:")
            self.emit(
                f"    hooks.precondition_observed("
                f"strand, {op.stage}, r{n}, ctx.now())"
            )
            self.emit_ops(position + 1)
            self.depth -= 1
            # Rows examined: the element's counter and the work charge
            # are the same number.
            self.emit(f"{join}.probes += len(rows{n})")
            self.emit("if charge is not None:")
            self.emit("    charge('join', 1)")
            self.emit(f"    charge({charged!r}, len(rows{n}) or 1)")
        elif isinstance(op, SelectElement):
            self.emit("if charge is not None:")
            self.emit("    charge('select', 1)")
            self.emit(f"{self.cell(f's{n}', op)}.invocations += 1")
            self.emit_guarded(f"ok = _truthy({self.expr(op.cond.expr)})")
            self.emit_ops(position + 1)
            self.depth -= 1
        elif isinstance(op, AssignElement):
            self.emit("if charge is not None:")
            self.emit("    charge('assign', 1)")
            self.emit(f"{self.cell(f'a{n}', op)}.invocations += 1")
            value = self.expr(op.assign.expr)
            known = self.bound.get(op.assign.var)
            if known is None:
                local = self.bind_var(op.assign.var)
                self.emit_guarded(f"{local} = {value}; ok = True")
            else:
                # Already bound: the assignment is an equality filter.
                self.emit_guarded(f"ok = values_equal({known}, {value})")
            self.emit_ops(position + 1)
            self.depth -= 1
        else:  # pragma: no cover - planner only emits the above
            raise TypeError(f"unexpected element {op!r}")

    def emit_guarded(self, statement: str) -> None:
        """``statement`` sets ``ok``; an :class:`EvaluationError` in it
        abandons the derivation.  Leaves the emitter inside ``if ok:``."""
        self.emit("try:")
        self.emit(f"    {statement}")
        self.emit("except EvaluationError:")
        self.emit("    strand.eval_errors += 1")
        self.emit("    ok = False")
        self.emit("if ok:")
        self.depth += 1

    def emit_leaf(self) -> None:
        head = self.project.head
        if self.aggregate is not None:
            self.emit(f"results.append({self.captured()})")
            return
        self.emit("p.invocations += 1")
        name = self.const(head.name)
        # Unbound variables in a delete head are deletion wildcards.
        values = emit_tuple(
            "None"
            if self.project.delete
            and isinstance(arg, ast.Var)
            and arg.name not in self.bound
            else self.expr(arg)
            for arg in head.args
        )
        if self.project.delete:
            build = f"pattern = {values}"
        else:
            build = f"tup = Tuple({name}, {values})"
        # A head of constants and bound (or wildcard) variables cannot
        # fail to evaluate.
        guarded = not all(
            isinstance(arg, (ast.Const, ast.SymbolicConst))
            or isinstance(arg, ast.Var)
            and (self.project.delete or arg.name in self.bound)
            for arg in head.args
        )
        if guarded:
            self.emit_guarded(f"{build}; ok = True")
        else:
            self.emit(build)
        if self.project.delete:
            self.emit("if pattern[0] is None:")
            message = (
                f"delete rule for {head.name!r} has an unbound "
                "location specifier"
            )
            self.emit(f"    raise PlannerError({self.const(message)})")
            self.emit(
                f"actions.append(DeleteAction({name}, pattern[0], pattern))"
            )
        else:
            self.emit("actions.append(tup)")
            self.emit("if hooks is not None:")
            self.emit("    hooks.output_observed(strand, tup, ctx.now())")
        if guarded:
            self.depth -= 1

    # -- aggregate heads -------------------------------------------------

    def group_vars(self) -> List[str]:
        """Variables the grouping reads, of those bound at the leaf."""
        spec = self.aggregate
        wanted = set() if spec.var is None else {spec.var}
        for i, arg in enumerate(self.project.head.args):
            if i != spec.index:
                wanted |= arg.variables()
        return sorted(wanted & set(self.bound))

    def captured(self) -> str:
        return emit_tuple(self.bound[var] for var in self.group_vars())

    def emit_fold(self, trigger_bound: Dict[str, str]) -> None:
        """Group the derivations by the non-aggregate head arguments.

        Keys are evaluated after the body has run, where the
        element-by-element evaluation evaluated them, so a key reading
        ``f_now()`` sees the same micro-clock.  With no group at all, a
        key computable from the trigger alone still yields a row (a
        ``count`` of zero — the paper's rule sr8 relies on it).
        """
        spec = self.aggregate
        head = self.project.head
        if spec.var is not None and spec.var not in self.bound:
            raise PlannerError(
                f"aggregate variable {spec.var} of {head.name!r} is not "
                "bound by the rule body"
            )
        key_args = [arg for i, arg in enumerate(head.args) if i != spec.index]

        def key() -> str:
            return emit_tuple(self.expr(arg) for arg in key_args)

        self.emit("groups = {}")
        self.emit(f"for {self.captured()} in results:")
        self.emit("    try:")
        self.emit(f"        key = {key()}")
        self.emit("    except EvaluationError:")
        self.emit("        strand.eval_errors += 1")
        self.emit("        continue")
        member = "1" if spec.var is None else self.bound[spec.var]
        self.emit(f"    groups.setdefault(key, []).append({member})")
        self.bound = trigger_bound
        self.emit("if not groups:")
        self.emit("    try:")
        self.emit(f"        groups[{key()}] = []")
        self.emit("    except EvaluationError:")
        self.emit("        pass")
        self.emit("for tup in strand.fold_groups(groups):")
        self.emit("    actions.append(tup)")
        self.emit("    if hooks is not None:")
        self.emit("        hooks.output_observed(strand, tup, ctx.now())")
