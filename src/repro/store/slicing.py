"""The one backward walker over the causality graph.

``ruleExec`` and ``tupleTable`` *are* the causality graph (§3.2, §3.4);
this module is the only code that reads them backwards.  One traversal,
two entry points:

- :func:`backward_slice` chases every edge: the minimal supporting set
  of rule executions, cross-node hops and leaf input tuples that
  explain an alarm (HOLMES/CamQuery-style);
- :func:`spine` chases only the event edge of each firing and lists
  that firing's precondition edges without their ancestry — what
  :func:`repro.analysis.causality.trace_back` projects into
  ``CausalLink`` objects, and what the paper's ``ep`` rules accumulate
  on-line.

The graph comes from a *provider*: ``edges_to(node, tid)`` (``re``
records whose effect is the tuple), ``source_of(node, tid)`` (the
recorded ``(SrcAddr, SrcTID)``), ``contents_of(node, tid)`` (the
:class:`~repro.runtime.tuples.Tuple`) and ``tid_of(node, tup)``.

- :class:`MemoryProvider` reads the live introspection rings
  (``ruleExec`` tables + tuple registries) of a running system;
- :class:`StoreProvider` reads a :class:`~repro.store.store.ForensicStore`
  (segments on disk), which keeps answering after the rings rotate;
- :class:`Layered` asks several in turn — memory, then the store.

All see the *same* node-local tuple ids (the store records registry
ids), and :meth:`Slice.to_json` is canonical (sorted, compact), so a
memory slice and a store slice of the same alarm are byte-identical
while history is still in the rings — the property the differential
battery pins.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple as PyTuple

from repro import codec
from repro.runtime.tuples import Tuple
from repro.store import format as fmt

DEFAULT_MAX_NODES = 100000


class MemoryProvider:
    """Graph provider over live nodes (address -> P2Node, traced)."""

    def __init__(self, nodes: Dict[str, Any]) -> None:
        self._nodes = nodes

    def _registry(self, node: str):
        live = self._nodes.get(node)
        return None if live is None else live.registry

    def edges_to(self, node: str, tid: int) -> List[Dict[str, Any]]:
        live = self._nodes.get(node)
        if live is None or not live.store.has("ruleExec"):
            return []
        out = []
        for row in live.store.get("ruleExec").scan():
            _, rule, cause, effect, in_t, out_t, is_event = row.values
            if effect == tid:
                out.append(
                    fmt.rule_exec_record(
                        node, rule, cause, effect, in_t, out_t, is_event
                    )
                )
        return out

    def source_of(self, node: str, tid: int) -> Optional[PyTuple]:
        registry = self._registry(node)
        return None if registry is None else registry.source_of(tid)

    def contents_of(self, node: str, tid: int) -> Optional[Tuple]:
        registry = self._registry(node)
        return None if registry is None else registry.lookup(tid)

    def tid_of(self, node: str, tup: Tuple) -> Optional[int]:
        # ``peek``, not ``id_of``: minting an id for a tuple nobody
        # knows would leave a historyless entry in the registry.
        registry = self._registry(node)
        return None if registry is None else registry.peek(tup)


class StoreProvider:
    """Graph provider over a (possibly closed) forensic store, whose
    payloads it turns back into tuples."""

    def __init__(self, store) -> None:
        self._store = store

    def edges_to(self, node: str, tid: int) -> List[Dict[str, Any]]:
        return self._store.edges_to(node, tid)

    def source_of(self, node: str, tid: int) -> Optional[PyTuple]:
        return self._store.source_of(node, tid)

    def contents_of(self, node: str, tid: int) -> Optional[Tuple]:
        return fmt.payload_tuple(self._store.contents_of(node, tid))

    def tid_of(self, node: str, tup: Tuple) -> Optional[int]:
        return self._store.tid_of(node, fmt.tuple_payload(tup))


class Layered:
    """Several providers as one: edges are the union of every layer's
    (the walker keeps the newest per identity), every other question
    goes to the first layer with an answer."""

    def __init__(self, *layers) -> None:
        self._layers = layers

    def edges_to(self, node: str, tid: int) -> List[Dict[str, Any]]:
        return [e for p in self._layers for e in p.edges_to(node, tid)]

    def _first(self, ask: str, *args):
        for layer in self._layers:
            answer = getattr(layer, ask)(*args)
            if answer is not None:
                return answer
        return None

    def source_of(self, node: str, tid: int) -> Optional[PyTuple]:
        return self._first("source_of", node, tid)

    def contents_of(self, node: str, tid: int) -> Optional[Tuple]:
        return self._first("contents_of", node, tid)

    def tid_of(self, node: str, tup: Tuple) -> Optional[int]:
        return self._first("tid_of", node, tup)


@dataclass
class Slice:
    """One backward slice, in canonical (sorted) form."""

    node: str
    tid: int
    #: Rule-execution edges in the slice (event *and* precondition).
    links: List[Dict[str, Any]] = field(default_factory=list)
    #: Cross-node hops followed: receiver (node, tid) -> sender.
    hops: List[Dict[str, Any]] = field(default_factory=list)
    #: Leaf inputs: tuples with no recorded producer (injected or
    #: beyond retention), with their payload when one is known.
    inputs: List[Dict[str, Any]] = field(default_factory=list)
    #: True when the walk hit ``max_nodes`` before exhausting the graph.
    truncated: bool = False

    def to_dict(self) -> Dict[str, Any]:
        return {
            "root": {"node": self.node, "tid": self.tid},
            "links": self.links,
            "hops": self.hops,
            "inputs": self.inputs,
            "truncated": self.truncated,
            "counts": {
                "links": len(self.links),
                "hops": len(self.hops),
                "inputs": len(self.inputs),
            },
        }

    def to_json(self) -> str:
        """Canonical JSON — byte-stable for a given dependency graph."""
        return codec.dumps(self.to_dict())


def _link_sort_key(link: Dict[str, Any]):
    return (
        link["n"],
        link["e"],
        link["r"],
        not link["ev"],
        link["c"],
        link["ti"],
        link["to"],
    )


def _dedup_latest(edges: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Keep the newest edge per logical identity.

    The in-memory ``ruleExec`` table replaces rows keyed on
    (rule, cause, effect, is_event) when an execution repeats; the
    store keeps every historical record.  Deduplicating to the latest
    (max ``to``) makes both providers present the same edge set while
    the rings still hold the history.
    """
    best: Dict[PyTuple, Dict[str, Any]] = {}
    for edge in edges:
        key = (edge["n"], edge["r"], edge["c"], edge["e"], edge["ev"])
        held = best.get(key)
        if held is None or edge["to"] >= held["to"]:
            best[key] = edge
    return list(best.values())


def _walk(provider, node: str, tid: int, follow, limit: int):
    """The traversal: breadth-first backwards from ``(node, tid)``.

    At each tuple, ``follow`` picks which of the edges into it (newest
    per identity) are chased to their causes; a tuple none is followed
    from is chased across the network through its recorded (SrcAddr,
    SrcTID) instead.  Returns ``(steps, truncated)``, one step
    ``(node, tid, edges, followed, source)`` per tuple expanded, at
    most ``limit`` of them.  A visited set makes the walk terminate on
    cyclic REPLACED ping-pongs.
    """
    steps = []
    queue = deque([(node, tid)])
    visited = {(node, tid)}
    while queue:
        if len(steps) >= limit:
            return steps, True
        at = queue.popleft()
        edges = _dedup_latest(provider.edges_to(*at))
        followed = follow(edges)
        upstream = [(at[0], edge["c"]) for edge in followed]
        source = None if followed else provider.source_of(*at)
        if source == at:
            source = None
        if source is not None:
            upstream.append(source)
        steps.append((*at, edges, followed, source))
        for tup in upstream:
            if tup not in visited:
                visited.add(tup)
                queue.append(tup)
    return steps, False


def backward_slice(
    provider,
    node: str,
    tid: int,
    max_nodes: int = DEFAULT_MAX_NODES,
) -> Slice:
    """Every edge followed: the minimal supporting set of ``(node, tid)``.

    Tuples with no local producer are chased across the network; tuples
    with neither a producer nor a source are the slice's leaf inputs.
    """
    steps, truncated = _walk(provider, node, tid, list, max_nodes)
    result = Slice(node=node, tid=tid, truncated=truncated)
    for at_node, at_tid, edges, _, source in steps:
        result.links.extend(edges)
        if source is not None:
            result.hops.append(
                {"n": at_node, "i": at_tid, "s": source[0], "si": source[1]}
            )
        elif not edges:
            contents = provider.contents_of(at_node, at_tid)
            rep = None if contents is None else fmt.tuple_payload(contents)
            result.inputs.append({"n": at_node, "i": at_tid, "rep": rep})
    result.links.sort(key=_link_sort_key)
    result.hops.sort(key=lambda h: (h["n"], h["i"]))
    result.inputs.sort(key=lambda r: (r["n"], r["i"]))
    return result


def _event_edge(edges: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """The spine rule: of the event edges into a tuple, the latest."""
    events = [edge for edge in edges if edge["ev"]]
    if not events:
        return []
    return [max(events, key=lambda e: (e["to"], _link_sort_key(e)))]


def spine(provider, node: str, tid: int, max_depth: int):
    """Only the event edge followed: the causal chain of ``(node, tid)``.

    Newest first, one ``(event edge, precondition edges of that firing,
    crossed_network)`` per rule execution — the tracer stamps every row
    of one firing with the same out-time; with no event edge into a
    tuple the walk follows its recorded network hop, and the next link
    found is marked ``crossed_network``.
    """
    steps, _ = _walk(provider, node, tid, _event_edge, max_depth)
    chain = []
    crossed = False
    for _, _, edges, followed, source in steps:
        for event in followed:
            preconditions = [
                edge
                for edge in edges
                if not edge["ev"]
                and (edge["r"], edge["to"]) == (event["r"], event["to"])
            ]
            preconditions.sort(key=_link_sort_key)
            chain.append((event, preconditions, crossed))
        crossed = source is not None
    return chain
