"""Spans around the benchmark's own calls, and wall time by layer.

Spans are recorded in every run (a dozen dicts); the traced run also
puts the measured spans under ``cProfile`` and turns the profile into
per-layer *self time*: the summed ``tottime`` of the functions in each
layer's modules, with time spent in callees outside ``repro`` (json,
heapq, builtins) charged to the nearest ``repro`` caller along the
profile's caller edges.  What cannot be resolved goes to ``other``.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

import repro

from .spec import LAYERS

REPRO_ROOT = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
BENCH_ROOT = os.path.dirname(os.path.abspath(__file__)) + os.sep

#: Public functions whose call counts are reported as boundary counts:
#: metric -> (path under repro/, function names).
BOUNDARY_CALLS = {
    "runtime.strand.fire_calls": ("runtime/strand.py", ("fire",)),
    "runtime.strand.fire_batch_calls": ("runtime/strand.py", ("fire_batch",)),
    "runtime.table.insert_calls": ("runtime/table.py", ("insert", "insert_batch")),
    "runtime.table.probe_calls": (
        "runtime/table.py",
        ("probe_index", "probe_index_batch", "lookup_key", "scan"),
    ),
    "net.network.send_calls": ("net/network.py", ("send",)),
    "net.marshal.encode_calls": ("net/marshal.py", ("encode_message", "payload_for")),
}

#: Layers whose boundary count is "calls entering the layer from outside
#: it" (their entry points are observers and hooks, not named API).
ENTRY_CALLS = {
    "introspect.logger.observer_calls": "introspect.logger",
    "obs.span_calls": "obs",
}


class Recorder:
    """In-memory span list for one workload run (one id per run)."""

    def __init__(self, run_id: str, profile: bool) -> None:
        self.run_id = run_id
        self.spans: List[dict] = []
        self._open: List[int] = []
        self.profiler: Optional[cProfile.Profile] = (
            cProfile.Profile() if profile else None
        )
        #: Wall seconds spent inside profiled spans.
        self.profiled_wall = 0.0

    @contextmanager
    def span(self, name: str, profiled: bool = False) -> Iterator[dict]:
        record = {
            "run": self.run_id,
            "id": len(self.spans),
            "parent": self._open[-1] if self._open else None,
            "name": name,
            "start": 0.0,
            "end": 0.0,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        profiler = self.profiler if profiled else None
        record["start"] = time.perf_counter()
        if profiler is not None:
            profiler.enable()
        try:
            yield record
        finally:
            if profiler is not None:
                profiler.disable()
            record["end"] = time.perf_counter()
            self._open.pop()
            if profiled:
                self.profiled_wall += record["end"] - record["start"]

    def durations(self, name: str) -> List[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))


def _relative(path: str) -> Optional[str]:
    """``path`` relative to the ``repro`` package, or None outside it."""
    if not path.startswith(REPRO_ROOT):
        return None
    return path[len(REPRO_ROOT):].replace(os.sep, "/")


def layer_of(path: str) -> Optional[str]:
    """The layer owning a source file; None for code outside the repo's
    package and the benchmark (its time belongs to whoever called it)."""
    relative = _relative(path)
    if relative is not None:
        for layer, prefixes in LAYERS.items():
            if relative.startswith(prefixes):
                return layer
        return "other"
    if path.startswith(BENCH_ROOT):
        return "other"
    return None


def layer_breakdown(profiler: cProfile.Profile) -> Dict[str, Dict[str, float]]:
    """``{"self_s": {layer: seconds}, "calls": {metric: count}}``."""
    stats = pstats.Stats(profiler).stats
    owners_memo: Dict[tuple, Dict[str, float]] = {}

    def owners(func: tuple, seen: frozenset) -> Dict[str, float]:
        """Layer -> fraction of ``func``'s time, via its callers."""
        layer = layer_of(func[0])
        if layer is not None:
            return {layer: 1.0}
        if func in owners_memo:
            return owners_memo[func]
        callers = {} if func in seen else stats.get(func, (0, 0, 0, 0, {}))[4]
        weight = sum(edge[3] for edge in callers.values())
        if weight <= 0:
            return {"other": 1.0}
        out: Dict[str, float] = defaultdict(float)
        for caller, edge in callers.items():
            for name, fraction in owners(caller, seen | {func}).items():
                out[name] += fraction * edge[3] / weight
        owners_memo[func] = out
        return out

    self_s: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
    calls: Dict[str, float] = {name: 0 for name in (*BOUNDARY_CALLS, *ENTRY_CALLS)}
    for func, (_cc, ncalls, tottime, _ct, callers) in stats.items():
        path, _line, name = func
        layer = layer_of(path)
        if layer is None:
            edge_time = sum(edge[2] for edge in callers.values())
            if edge_time <= 0:
                self_s["other"] += tottime
                continue
            for caller, edge in callers.items():
                part = tottime * edge[2] / edge_time
                for owner, fraction in owners(caller, frozenset((func,))).items():
                    self_s[owner] += part * fraction
            continue
        self_s[layer] += tottime
        relative = _relative(path)
        for metric, (module, names) in BOUNDARY_CALLS.items():
            if relative == module and name in names:
                calls[metric] += ncalls
        if (relative, name) == ("runtime/strand.py", "fire") and ncalls:
            # Share of rule firings that ran inside a batched firing.
            calls["runtime.strand.batched_call_share"] = sum(
                edge[0] for caller, edge in callers.items() if caller[2] == "fire_batch"
            ) / ncalls
        for metric, entered in ENTRY_CALLS.items():
            if layer == entered:
                calls[metric] += sum(
                    edge[0]
                    for caller, edge in callers.items()
                    if layer_of(caller[0]) != entered
                )
    return {"self_s": self_s, "calls": calls}
