"""Pattern matching of functor argument lists against tuple values.

Body functor arguments are restricted to variables and constants (the
validator enforces this), so matching is plain unification: variables
bind or must agree with an existing binding; constants must equal the
tuple value.  Returns the extended bindings dict or None on mismatch.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence

from repro.overlog import ast
from repro.overlog.expr import values_equal

Bindings = Dict[str, Any]

IGNORE_PREFIX = "_"
"""Variables starting with '_' match anything without binding."""


def match_args(
    patterns: Sequence[ast.Expr],
    values: Sequence[Any],
    bindings: Bindings,
) -> Optional[Bindings]:
    """Unify ``patterns`` against ``values`` under ``bindings``.

    Returns a *new* dict extending ``bindings`` on success, None on
    failure.  The caller's dict is never mutated, so backtracking joins
    can reuse it for the next candidate.

    This is the reference for pattern matching: rule strands run the
    same unification as generated code (:mod:`repro.runtime.codegen`),
    with bind-or-compare decided per column at plan time.
    """
    if len(patterns) != len(values):
        return None
    out = dict(bindings)
    for pattern, value in zip(patterns, values):
        if isinstance(pattern, ast.Var):
            name = pattern.name
            if name.startswith(IGNORE_PREFIX):
                continue
            if name in out:
                if not values_equal(out[name], value):
                    return None
            else:
                out[name] = value
        elif isinstance(pattern, ast.Const):
            if not values_equal(pattern.value, value):
                return None
        elif isinstance(pattern, ast.SymbolicConst):
            # Unresolved symbolic constants compare as their own name.
            if not values_equal(pattern.name, value):
                return None
        else:
            return None  # the validator forbids it in body functors
    return out
