"""Built-in OverLog functions (the ``f_*`` family).

Builtins are resolved against an :class:`EvalContext` so they see virtual
time and the simulation's seeded randomness — ``f_now()`` returns the
simulator clock, not wall time, which is what makes traced timings
deterministic and reproducible.

Implemented (all used by the paper's rules, plus hashing for Chord IDs):

- ``f_now()``       — current virtual time (seconds, float)
- ``f_rand()``      — random 31-bit integer nonce
- ``f_randID()``    — random :class:`NodeID` on the ring
- ``f_hash(x)``     — stable hash of any value to a :class:`NodeID`
- ``f_dist(a, b)``  — clockwise ring distance from a to b
- ``f_size(xs)``    — length of a list value
- ``f_concat(a,b)`` — string concatenation of rendered values
"""

from __future__ import annotations

import hashlib
from typing import Any, Callable, Dict

from repro.errors import EvaluationError
from repro.overlog.types import DEFAULT_ID_BITS, NodeID


class EvalContext:
    """Everything builtins need: a clock, randomness, and the ring size."""

    def __init__(
        self,
        now: Callable[[], float],
        rng,
        id_bits: int = DEFAULT_ID_BITS,
    ) -> None:
        self.now = now
        self.rng = rng
        self.id_bits = id_bits


def stable_hash_id(value: Any, bits: int = DEFAULT_ID_BITS) -> NodeID:
    """Hash any value to a NodeID deterministically across processes."""
    digest = hashlib.sha1(repr(value).encode()).digest()
    number = int.from_bytes(digest[:8], "big")
    return NodeID(number, bits)


def _f_now(ctx: EvalContext) -> float:
    return ctx.now()


def _f_rand(ctx: EvalContext) -> int:
    return ctx.rng.randrange(1 << 31)


def _f_rand_id(ctx: EvalContext) -> NodeID:
    return NodeID(ctx.rng.randrange(1 << ctx.id_bits), ctx.id_bits)


def _f_hash(ctx: EvalContext, value: Any) -> NodeID:
    return stable_hash_id(value, ctx.id_bits)


def _f_dist(ctx: EvalContext, a: Any, b: Any) -> NodeID:
    if not isinstance(a, NodeID):
        a = NodeID(int(a), ctx.id_bits)
    return (b - a) if isinstance(b, NodeID) else NodeID(int(b), ctx.id_bits) - a


def _f_size(ctx: EvalContext, xs: Any) -> int:
    try:
        return len(xs)
    except TypeError:
        raise EvaluationError(f"f_size: value has no length: {xs!r}")


def _f_concat(ctx: EvalContext, a: Any, b: Any) -> str:
    return f"{a}{b}"


def _f_pow(ctx: EvalContext, base: Any, exponent: Any) -> Any:
    """Integer power — Chord's finger targets are NID + f_pow(2, I)."""
    return int(base) ** int(exponent)


BUILTINS: Dict[str, Callable] = {
    "f_now": _f_now,
    "f_rand": _f_rand,
    "f_randID": _f_rand_id,
    "f_hash": _f_hash,
    "f_dist": _f_dist,
    "f_size": _f_size,
    "f_concat": _f_concat,
    "f_pow": _f_pow,
}


def call_builtin(name: str, ctx: EvalContext, args: list) -> Any:
    """Invoke the named builtin; raises EvaluationError if unknown."""
    func = BUILTINS.get(name)
    if func is None:
        raise EvaluationError(f"unknown built-in function {name!r}")
    try:
        return func(ctx, *args)
    except (TypeError, ValueError) as exc:
        raise EvaluationError(f"bad arguments to {name}: {exc}") from exc
