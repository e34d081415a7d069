"""Causal-chain reconstruction from the trace tables.

``trace_back`` is the event spine of a tuple's backward slice
(:func:`repro.store.slicing.spine` — the one walker over ``ruleExec``
and ``tupleTable``), projected into :class:`CausalLink` objects: the
chain of rule executions, newest first, hopping to the sending node
where a cause arrived over the network — exactly what the paper's ep
rules accumulate on-line.

The in-memory trace tables are bounded rings, so a long-lived system
eventually rotates the very rows an investigation needs.  Passing a
:class:`~repro.store.store.ForensicStore` as ``store`` layers it under
memory: edges are the union of both, and identities, cross-node source
hops and tuple contents memory no longer holds come from the durable
segments — so a walk that starts on a live node can finish in last
week's history.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.runtime.node import P2Node
from repro.runtime.tuples import Tuple
from repro.store.slicing import Layered, MemoryProvider, StoreProvider, spine


@dataclass
class Precondition:
    """A table row whose existence allowed a rule execution to fire."""

    tuple_id: int
    contents: Optional[Tuple]  # memoized contents, if still retained
    fetched_at: float


@dataclass
class CausalLink:
    """One step: ``rule`` on ``node`` turned ``cause`` into ``effect``.

    ``preconditions`` are the joined table rows recorded by the tracer
    (ruleExec rows with IsEvent = false) — §3.4's suggestion that a
    trace walk can "trace back individual preconditions of the
    execution trace (e.g., specific successor tuples)".
    """

    node: str
    rule: str
    cause_id: int
    effect_id: int
    in_time: float
    out_time: float
    cause: Optional[Tuple]   # memoized contents, if still retained
    effect: Optional[Tuple]
    crossed_network: bool    # effect was shipped to another node
    preconditions: List[Precondition] = None


def trace_back(
    nodes: Dict[str, P2Node],
    start_node: str,
    tup: Tuple,
    max_depth: int = 100,
    store=None,
) -> List[CausalLink]:
    """Walk the causal spine of ``tup`` backwards across nodes.

    ``nodes`` maps address -> node (all must have tracing enabled).
    Returns links newest-first; an empty list means nobody knows the
    tuple or it has no recorded producer on ``start_node`` (e.g. it
    was injected).

    With ``store``, any link memory no longer holds — its ring rotated,
    its memo was flushed, the node crashed — is read from the durable
    store instead; the walk can even hop through addresses that no
    longer exist in ``nodes``.
    """
    provider = MemoryProvider(nodes)
    if store is not None:
        provider = Layered(provider, StoreProvider(store))
    tid = provider.tid_of(start_node, tup)
    if tid is None:
        return []
    return [
        CausalLink(
            node=event["n"],
            rule=event["r"],
            cause_id=event["c"],
            effect_id=event["e"],
            in_time=event["ti"],
            out_time=event["to"],
            cause=provider.contents_of(event["n"], event["c"]),
            effect=provider.contents_of(event["n"], event["e"]),
            crossed_network=crossed,
            preconditions=[
                Precondition(
                    tuple_id=edge["c"],
                    contents=provider.contents_of(edge["n"], edge["c"]),
                    fetched_at=edge["ti"],
                )
                for edge in preconditions
            ],
        )
        for event, preconditions, crossed in spine(
            provider, start_node, tid, max_depth
        )
    ]


def dependencies(chain: List[CausalLink], name: str) -> List[Tuple]:
    """All precondition tuples named ``name`` anywhere in a chain.

    §3.4's oscillator forensics: given a lookup's chain, ask which
    ``succ``/``finger`` rows it depended on, then check those against
    the oscillation reports.
    """
    out: List[Tuple] = []
    for link in chain:
        for precondition in link.preconditions or ():
            contents = precondition.contents
            if contents is not None and contents.name == name:
                out.append(contents)
    return out
