"""Program container, symbolic-constant binding, and semantic validation.

A :class:`Program` wraps a parsed AST with a name and a binding table for
symbolic constants (so monitor templates can say ``periodic@N(E, tProbe)``
and be instantiated with ``tProbe=15`` at install time).  ``validate()``
performs the semantic checks the planner relies on:

- body functor arguments are variables or constants only;
- every rule body contains at least one functor;
- head variables are bound by the body (except in delete rules, where
  unbound head variables act as deletion wildcards);
- at most one aggregate per head, with a body-bound aggregate variable;
- condition/assignment expressions only use variables some body functor
  or earlier assignment can bind;
- ``periodic`` functors have a constant period.
"""

from __future__ import annotations

import copy
from typing import Any, Dict, List, Optional

from repro import codec
from repro.errors import ValidationError
from repro.overlog import ast
from repro.overlog.parser import parse


class Program:
    """A named, optionally parameter-bound OverLog program."""

    def __init__(
        self,
        tree: ast.ProgramAST,
        name: str = "program",
        bindings: Optional[Dict[str, Any]] = None,
        role: str = "data",
    ) -> None:
        self.name = name
        self.tree = tree
        #: Overload-protection priority class for every relation this
        #: program materializes or derives (``data`` / ``monitor`` /
        #: ``trace``, highest priority first); the installing node's
        #: priority map learns it.  See :mod:`repro.overload.policy`.
        self.role = role
        if bindings:
            codec.check(bindings.values())
            self.tree = _substitute(self.tree, bindings)

    @classmethod
    def parse(
        cls,
        source: str,
        name: str = "program",
        bindings: Optional[Dict[str, Any]] = None,
        role: str = "data",
    ) -> "Program":
        """Parse source text and wrap it (does not validate)."""
        return cls(parse(source), name=name, bindings=bindings, role=role)

    @classmethod
    def compile(
        cls,
        source: str,
        name: str = "program",
        bindings: Optional[Dict[str, Any]] = None,
        role: str = "data",
    ) -> "Program":
        """Parse + validate in one step; the common entry point."""
        program = cls.parse(source, name=name, bindings=bindings, role=role)
        program.validate()
        return program

    @property
    def rules(self) -> List[ast.Rule]:
        return self.tree.rules

    @property
    def materializations(self) -> List[ast.Materialize]:
        return self.tree.materializations

    def __str__(self) -> str:
        return str(self.tree)

    # ------------------------------------------------------------------
    # Validation

    def validate(self) -> None:
        """Run all semantic checks; raises :class:`ValidationError`."""
        seen_tables: Dict[str, ast.Materialize] = {}
        for mat in self.materializations:
            if mat.name in seen_tables:
                raise ValidationError(
                    f"{self.name}: table {mat.name!r} materialized twice"
                )
            seen_tables[mat.name] = mat
        for rule in self.rules:
            self._validate_rule(rule)

    def _validate_rule(self, rule: ast.Rule) -> None:
        label = rule.rule_id or str(rule.head)
        where = f"{self.name}/{label}"

        functors = rule.body_functors()
        if not functors:
            raise ValidationError(f"{where}: rule body has no predicates")

        # Body functor args must be variables or constants.
        for functor in functors:
            for arg in functor.args:
                if not isinstance(
                    arg, (ast.Var, ast.Const, ast.SymbolicConst)
                ):
                    raise ValidationError(
                        f"{where}: body predicate {functor.name!r} has a "
                        f"complex argument {arg}; only variables and "
                        "constants are allowed in body predicates"
                    )

        # Aggregates: head-only, at most one.
        aggregates = rule.head.aggregates()
        if len(aggregates) > 1:
            raise ValidationError(
                f"{where}: at most one aggregate is allowed per head"
            )
        for term in rule.body:
            for expr in _term_exprs(term):
                if _contains_aggregate(expr):
                    raise ValidationError(
                        f"{where}: aggregates are only legal in rule heads"
                    )

        # Collect variables bindable by the body.
        functor_vars: set = set()
        for functor in functors:
            functor_vars |= functor.variables()
        bound = set(functor_vars)
        for term in rule.body:
            if isinstance(term, ast.Assign):
                missing = term.expr.variables() - bound
                if missing:
                    raise ValidationError(
                        f"{where}: assignment {term} uses unbound "
                        f"variable(s) {sorted(missing)}"
                    )
                bound.add(term.var)
            elif isinstance(term, ast.Cond):
                missing = term.expr.variables() - bound
                if missing:
                    raise ValidationError(
                        f"{where}: condition {term} uses unbound "
                        f"variable(s) {sorted(missing)}"
                    )

        # Head safety (delete rules may leave wildcards unbound).
        if not rule.delete:
            head_vars: set = set()
            for arg in rule.head.args:
                if isinstance(arg, ast.Aggregate):
                    if arg.var is not None and arg.var not in bound:
                        raise ValidationError(
                            f"{where}: aggregate variable {arg.var} "
                            "is not bound by the body"
                        )
                    continue
                head_vars |= arg.variables()
            unbound = {
                v for v in head_vars if not v.startswith("_")
            } - bound
            if unbound:
                raise ValidationError(
                    f"{where}: head variable(s) {sorted(unbound)} are "
                    "not bound by the body"
                )

        # Location specifier of the head must be bound (or constant).
        loc = rule.head.location
        if isinstance(loc, ast.Aggregate):
            raise ValidationError(
                f"{where}: head location specifier cannot be an aggregate"
            )

        # periodic(loc, nonce, period): the period must be constant.
        for functor in functors:
            if functor.name == "periodic":
                if len(functor.args) < 3:
                    raise ValidationError(
                        f"{where}: periodic needs (loc, nonce, period)"
                    )
                period = functor.args[2]
                if not isinstance(period, (ast.Const, ast.SymbolicConst)):
                    raise ValidationError(
                        f"{where}: periodic period must be a constant, "
                        f"got {period}"
                    )


# ---------------------------------------------------------------------------
# Helpers


def _term_exprs(term: ast.BodyTerm) -> List[ast.Expr]:
    if isinstance(term, ast.Functor):
        return list(term.args)
    if isinstance(term, ast.Assign):
        return [term.expr]
    if isinstance(term, ast.Cond):
        return [term.expr]
    return []


def _contains_aggregate(expr: ast.Expr) -> bool:
    if isinstance(expr, ast.Aggregate):
        return True
    if isinstance(expr, ast.UnaryOp):
        return _contains_aggregate(expr.operand)
    if isinstance(expr, ast.BinOp):
        return _contains_aggregate(expr.left) or _contains_aggregate(expr.right)
    if isinstance(expr, ast.FuncCall):
        return any(_contains_aggregate(a) for a in expr.args)
    if isinstance(expr, ast.ListExpr):
        return any(_contains_aggregate(i) for i in expr.items)
    if isinstance(expr, ast.RangeCheck):
        return (
            _contains_aggregate(expr.subject)
            or _contains_aggregate(expr.low)
            or _contains_aggregate(expr.high)
        )
    return False


def _substitute(tree: ast.ProgramAST, bindings: Dict[str, Any]) -> ast.ProgramAST:
    """Replace symbolic constants with literal values, recursively."""
    tree = copy.deepcopy(tree)
    for statement in tree.statements:
        if isinstance(statement, ast.Rule):
            statement.head = _sub_functor(statement.head, bindings)
            statement.body = [_sub_term(t, bindings) for t in statement.body]
    return tree


def _sub_term(term: ast.BodyTerm, bindings: Dict[str, Any]) -> ast.BodyTerm:
    if isinstance(term, ast.Functor):
        return _sub_functor(term, bindings)
    if isinstance(term, ast.Assign):
        return ast.Assign(term.var, _sub_expr(term.expr, bindings))
    if isinstance(term, ast.Cond):
        return ast.Cond(_sub_expr(term.expr, bindings))
    return term


def _sub_functor(functor: ast.Functor, bindings: Dict[str, Any]) -> ast.Functor:
    return ast.Functor(
        functor.name, [_sub_expr(a, bindings) for a in functor.args]
    )


def _sub_expr(expr: ast.Expr, bindings: Dict[str, Any]) -> ast.Expr:
    if isinstance(expr, ast.SymbolicConst) and expr.name in bindings:
        return ast.Const(bindings[expr.name])
    if isinstance(expr, ast.UnaryOp):
        return ast.UnaryOp(expr.op, _sub_expr(expr.operand, bindings))
    if isinstance(expr, ast.BinOp):
        return ast.BinOp(
            expr.op,
            _sub_expr(expr.left, bindings),
            _sub_expr(expr.right, bindings),
        )
    if isinstance(expr, ast.FuncCall):
        return ast.FuncCall(
            expr.name, tuple(_sub_expr(a, bindings) for a in expr.args)
        )
    if isinstance(expr, ast.ListExpr):
        return ast.ListExpr(
            tuple(_sub_expr(i, bindings) for i in expr.items)
        )
    if isinstance(expr, ast.RangeCheck):
        return ast.RangeCheck(
            _sub_expr(expr.subject, bindings),
            _sub_expr(expr.low, bindings),
            _sub_expr(expr.high, bindings),
            expr.low_closed,
            expr.high_closed,
        )
    return expr
