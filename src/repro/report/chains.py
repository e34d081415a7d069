"""Causal-chain rendering: the §3.2 walk, human-readable."""

from __future__ import annotations

from typing import List

from repro.analysis.causality import CausalLink


def render_chain(chain: List[CausalLink]) -> str:
    """Render a newest-first chain oldest-first as an indented tree.

    Example::

        causal chain (3 rule executions, 1 network hop)
        cs1 @ n0:10000  [+0.000 ms rule]
        └─ cs2 @ n0:10000  [+0.015 ms rule]
           ├─ precondition: uniqueFinger@n0:10000(...)
           └─ l1 @ n3:10003  [+0.012 ms rule]  <~~ network
    """
    if not chain:
        return "causal chain (empty: no recorded producer)"
    ordered = list(reversed(chain))  # oldest first
    hops = sum(1 for link in chain if link.crossed_network)
    lines: List[str] = [
        f"causal chain ({len(chain)} rule executions, {hops} network hop(s))"
    ]
    for depth, link in enumerate(ordered):
        rule_ms = (link.out_time - link.in_time) * 1000.0
        net_mark = "  <~~ network" if link.crossed_network else ""
        prefix = "" if depth == 0 else "   " * (depth - 1) + "└─ "
        lines.append(
            f"{prefix}{link.rule} @ {link.node}  "
            f"[+{rule_ms:.3f} ms rule]{net_mark}"
        )
        pad = "   " * depth
        for precondition in link.preconditions:
            contents = (
                repr(precondition.contents)
                if precondition.contents is not None
                else f"<tuple #{precondition.tuple_id}, expired>"
            )
            lines.append(f"{pad}├─ precondition: {contents}")
    final = ordered[-1]
    if final.effect is not None:
        lines.append(f"=> {final.effect!r}")
    return "\n".join(lines)
