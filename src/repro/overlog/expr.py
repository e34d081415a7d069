"""Expression semantics: an evaluator and a Python-source emitter.

:func:`evaluate` walks an expression AST under a bindings dict (variable
name -> value) and an :class:`EvalContext` (clock/randomness/ring size
for builtins).  :func:`emit_expr` turns the same AST into Python source
that calls the same value helpers; rule strands run the emitted form
(:mod:`repro.runtime.codegen`) and ``evaluate`` is the reference it is
tested against.  Unbound variables raise :class:`EvaluationError` — the
program validator catches unsafe rules before they reach here, so a
raised error indicates an engine bug or an intentionally unbound delete
wildcard (handled by the caller, not here).

Semantics worth noting:

- ``+`` concatenates lists/strings as well as adding numbers; NodeID
  arithmetic is modular (delegated to :class:`NodeID`);
- ``==``/``!=`` never raise on type mismatch (distinct types compare
  unequal), matching Datalog's value semantics;
- ``&&``/``||`` are short-circuiting;
- ``X in (A, B]`` uses circular interval membership when any operand is
  a NodeID, and plain ordering otherwise.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, Optional

from repro.errors import EvaluationError
from repro.overlog import ast
from repro.overlog.builtins import EvalContext, call_builtin
from repro.overlog.types import NodeID

Bindings = Dict[str, Any]


def emit_expr(
    expr: ast.Expr,
    local: Callable[[str], Optional[str]],
    const: Callable[[Any], str],
) -> str:
    """Python source of one expression whose value is ``expr``'s.

    The strand generator (:mod:`repro.runtime.codegen`) inlines this
    text into the function it builds for a rule strand.  ``local(name)``
    is the Python local holding the OverLog variable ``name``, or None
    when the variable is unbound where the expression sits;
    ``const(value)`` names a constant the generated function closes
    over.  The text refers to ``ctx`` (the :class:`EvalContext`) and to
    the helpers in :data:`EMITTED_NAMES` — the same functions
    :func:`evaluate` calls — so the semantics listed in the module
    docstring, the evaluation order and every error message are defined
    once, here.  Nodes :func:`evaluate` rejects emit a call that raises
    the same :class:`EvaluationError` when (and only when) reached.
    """

    def emit(node: ast.Expr) -> str:
        if isinstance(node, ast.Const):
            return const(node.value)
        if isinstance(node, ast.Var):
            return local(node.name) or f"_unbound({node.name!r})"
        if isinstance(node, ast.SymbolicConst):
            return const(node.name)
        if isinstance(node, ast.UnaryOp):
            if node.op == "-":
                return f"_negate({emit(node.operand)})"
            if node.op == "!":
                return f"(not _truthy({emit(node.operand)}))"
            return _emit_failure(
                f"unknown unary operator {node.op!r}", emit(node.operand)
            )
        if isinstance(node, ast.BinOp):
            op, left, right = node.op, emit(node.left), emit(node.right)
            if op == "&&":
                return f"(_truthy({right}) if _truthy({left}) else False)"
            if op == "||":
                return f"(True if _truthy({left}) else _truthy({right}))"
            if op == "==":
                return f"values_equal({left}, {right})"
            if op == "!=":
                return f"(not values_equal({left}, {right}))"
            if op in ("<", "<=", ">", ">="):
                return f"_compare({op!r}, {left}, {right})"
            if op in ("+", "-", "*", "/", "%"):
                return f"_arith({op!r}, {left}, {right})"
            return _emit_failure(f"unknown binary operator {op!r}", left, right)
        if isinstance(node, ast.FuncCall):
            args = ", ".join(emit(a) for a in node.args)
            return f"call_builtin({node.name!r}, ctx, [{args}])"
        if isinstance(node, ast.ListExpr):
            return emit_tuple(emit(item) for item in node.items)
        if isinstance(node, ast.RangeCheck):
            return (
                f"_interval({emit(node.subject)}, {emit(node.low)}, "
                f"{emit(node.high)}, {node.low_closed!r}, {node.high_closed!r})"
            )
        if isinstance(node, ast.Aggregate):
            return _emit_failure("aggregates are only legal in rule heads")
        return _emit_failure(f"cannot evaluate expression node {node!r}")

    return emit(expr)


def emit_tuple(items: Iterable[str]) -> str:
    """Source of a tuple display of the given item sources."""
    items = list(items)
    return "(" + ", ".join(items) + ("," if len(items) == 1 else "") + ")"


def _emit_failure(message: str, *operands: str) -> str:
    return f"_fail({', '.join((repr(message),) + operands)})"


def _fail(message: str, *evaluated: Any):
    """Raise, once the operands :func:`evaluate` would have evaluated
    first have been."""
    raise EvaluationError(message)


def _unbound(name: str):
    raise EvaluationError(f"unbound variable {name}")


def evaluate(expr: ast.Expr, bindings: Bindings, ctx: EvalContext) -> Any:
    """Evaluate ``expr`` under ``bindings``; raises on unbound variables."""
    if isinstance(expr, ast.Const):
        return expr.value
    if isinstance(expr, ast.Var):
        if expr.name not in bindings:
            _unbound(expr.name)
        return bindings[expr.name]
    if isinstance(expr, ast.SymbolicConst):
        # Unresolved lower-case identifiers evaluate to their own name —
        # the paper's "lower-case terms are constants" convention.
        return expr.name
    if isinstance(expr, ast.UnaryOp):
        return _unary(expr, bindings, ctx)
    if isinstance(expr, ast.BinOp):
        return _binary(expr, bindings, ctx)
    if isinstance(expr, ast.FuncCall):
        args = [evaluate(a, bindings, ctx) for a in expr.args]
        return call_builtin(expr.name, ctx, args)
    if isinstance(expr, ast.ListExpr):
        return tuple(evaluate(item, bindings, ctx) for item in expr.items)
    if isinstance(expr, ast.RangeCheck):
        return _range_check(expr, bindings, ctx)
    if isinstance(expr, ast.Aggregate):
        raise EvaluationError("aggregates are only legal in rule heads")
    raise EvaluationError(f"cannot evaluate expression node {expr!r}")


def _unary(expr: ast.UnaryOp, bindings: Bindings, ctx: EvalContext) -> Any:
    value = evaluate(expr.operand, bindings, ctx)
    if expr.op == "-":
        return _negate(value)
    if expr.op == "!":
        return not _truthy(value)
    raise EvaluationError(f"unknown unary operator {expr.op!r}")


def _negate(value: Any) -> Any:
    if isinstance(value, NodeID):
        return NodeID(-value.value, value.bits)
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return -value
    raise EvaluationError(f"cannot negate {value!r}")


def _binary(expr: ast.BinOp, bindings: Bindings, ctx: EvalContext) -> Any:
    op = expr.op

    # Short-circuit boolean connectives.
    if op == "&&":
        if not _truthy(evaluate(expr.left, bindings, ctx)):
            return False
        return _truthy(evaluate(expr.right, bindings, ctx))
    if op == "||":
        if _truthy(evaluate(expr.left, bindings, ctx)):
            return True
        return _truthy(evaluate(expr.right, bindings, ctx))

    left = evaluate(expr.left, bindings, ctx)
    right = evaluate(expr.right, bindings, ctx)

    if op == "==":
        return values_equal(left, right)
    if op == "!=":
        return not values_equal(left, right)
    if op in ("<", "<=", ">", ">="):
        return _compare(op, left, right)
    if op in ("+", "-", "*", "/", "%"):
        return _arith(op, left, right)
    raise EvaluationError(f"unknown binary operator {op!r}")


def values_equal(left: Any, right: Any) -> bool:
    """Datalog-style equality: mismatched types are unequal, not errors."""
    try:
        result = left == right
    except Exception:
        return False
    if result is NotImplemented:
        return False
    return bool(result)


def _compare(op: str, left: Any, right: Any) -> bool:
    try:
        if op == "<":
            result = left < right
        elif op == "<=":
            result = left <= right
        elif op == ">":
            result = left > right
        else:
            result = left >= right
    except TypeError as exc:
        raise EvaluationError(
            f"cannot compare {left!r} {op} {right!r}"
        ) from exc
    if result is NotImplemented:
        raise EvaluationError(f"cannot compare {left!r} {op} {right!r}")
    return bool(result)


def _arith(op: str, left: Any, right: Any) -> Any:
    if op == "+":
        # List / string concatenation ("[B,A] + P" builds paths).
        if isinstance(left, (tuple, list)) or isinstance(right, (tuple, list)):
            return _as_tuple(left) + _as_tuple(right)
        if isinstance(left, str) and isinstance(right, str):
            return left + right
    try:
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            if isinstance(left, int) and isinstance(right, int):
                if right == 0:
                    raise EvaluationError("division by zero")
                return left // right if left % right == 0 else left / right
            if right == 0:
                raise EvaluationError("division by zero")
            return left / right
        if op == "%":
            if right == 0:
                raise EvaluationError("modulo by zero")
            return left % right
    except EvaluationError:
        raise
    except TypeError as exc:
        raise EvaluationError(
            f"cannot compute {left!r} {op} {right!r}"
        ) from exc
    raise EvaluationError(f"unknown arithmetic operator {op!r}")


def _as_tuple(value: Any):
    if isinstance(value, tuple):
        return value
    if isinstance(value, list):
        return tuple(value)
    return (value,)


def _range_check(
    expr: ast.RangeCheck, bindings: Bindings, ctx: EvalContext
) -> bool:
    return _interval(
        evaluate(expr.subject, bindings, ctx),
        evaluate(expr.low, bindings, ctx),
        evaluate(expr.high, bindings, ctx),
        expr.low_closed,
        expr.high_closed,
    )


def _interval(
    subject: Any, low: Any, high: Any, low_closed: bool, high_closed: bool
) -> bool:
    try:
        if isinstance(subject, NodeID):
            return subject.in_interval(low, high, low_closed, high_closed)
        if isinstance(low, NodeID) or isinstance(high, NodeID):
            bits = low.bits if isinstance(low, NodeID) else high.bits
            return NodeID(int(subject), bits).in_interval(
                low, high, low_closed, high_closed
            )

        # Plain linear interval for non-ring values.
        above = subject >= low if low_closed else subject > low
        below = subject <= high if high_closed else subject < high
        return bool(above and below)
    except (TypeError, ValueError) as exc:
        raise EvaluationError(
            f"cannot test {subject!r} against the interval "
            f"{low!r} .. {high!r}"
        ) from exc


def _truthy(value: Any) -> bool:
    """OverLog truthiness: the string "true"/"false" convention plus bool."""
    if isinstance(value, str):
        if value == "true":
            return True
        if value == "false":
            return False
    return bool(value)


#: What source from :func:`emit_expr` expects to find in its globals.
EMITTED_NAMES: Dict[str, Any] = {
    fn.__name__: fn
    for fn in (
        values_equal, _arith, _compare, _interval, _negate, _truthy,
        _fail, _unbound, call_builtin,
    )
}
