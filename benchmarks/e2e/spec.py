"""What the benchmark measures: workloads, sizes, metrics, layers.

Everything another file needs to know about *names* lives here, so the
result schema, ``BENCHMARK.json`` (:func:`contract`), the README tables
and the self-check all read one definition.

Sizes were chosen on a 2-core box so that one repeat of each workload
has a measured window of about ``RUN_SECONDS`` wall seconds; ``--seconds``
scales the window's simulated length in proportion (same seed and same
``--seconds`` give the same inputs and the same simulated statistics).
"""

from __future__ import annotations

from typing import Any, Dict, List

#: Wall seconds one measured window is sized for (BENCHMARK.json
#: ``run_seconds``); ``--seconds`` scales window sim-seconds by
#: ``seconds / RUN_SECONDS``.
RUN_SECONDS = 4

#: Repeats (fresh subprocesses) whose median one driver run reports.
DRIVER_REPEATS = 3

WORKLOADS: Dict[str, Dict[str, Any]] = {
    "ring_bare": {
        "why": (
            "48-node monitored Chord on the batch kernel with every observation "
            "layer off: scheduler, fabric, strands and tables do all the work"
        ),
        "sizes": {
            "nodes": 48,
            "join_spacing_s": 1.0,
            "boot_sim_s": 170.0,
            "warmup_sim_s": 2.0,
            "window_sim_s": 40.0,
            "lookups": 48,
            "probe_period_s": 15.0,
            "report_period_s": 0.2,
            "metrics_per_node": 8,
            "collectors": 4,
        },
    },
    "ring_observed": {
        "why": (
            "16-node monitored Chord with tracing, logging, telemetry, overload "
            "control and the store all on, then cold slices: the paper's configuration"
        ),
        "sizes": {
            "nodes": 16,
            "join_spacing_s": 1.0,
            "boot_sim_s": 80.0,
            "warmup_sim_s": 2.0,
            "window_sim_s": 4.5,
            "lookups": 16,
            "slices": 5,
            "probe_period_s": 15.0,
            "report_period_s": 0.2,
            "metrics_per_node": 8,
            "collectors": 4,
        },
    },
    "forensic_chains": {
        "why": (
            "8 traced+logged nodes run a cross-node rule chain into the store, then "
            "cold slices and scans: store writes beside store reads, no Chord"
        ),
        "sizes": {
            "nodes": 8,
            "tick_period_s": 0.05,
            "window_sim_s": 22.0,
            "segment_events": 8192,
            "slices": 5,
            "scans": 5,
        },
    },
    "rules_single": {
        "why": (
            "one node, no network: 200 periodic rules, a keyed insert chain and two "
            "join rules; isolates parse/plan, strand firing and tables from the fabric"
        ),
        "sizes": {
            "periodic_rules": 200,
            "chain_period_s": 0.1,
            "slot_rows": 200,
            "dim_rows": 256,
            "fan_out": 32,
            "compiles": 5,
            "warmup_sim_s": 20.0,
            "window_sim_s": 800.0,
        },
    },
}

ALL = list(WORKLOADS)
STORE = ["ring_observed", "forensic_chains"]

#: The nine end-to-end metrics.  ``contract`` says where the driver
#: contract carries the metric: it requires every ``end_to_end`` metric
#: from every workload and forbids values that are always 0, so a metric
#: that only some workloads have is listed under ``per_layer`` there
#: (no bound), ``ops_failed_share`` is the result line's
#: ``failed / attempted`` and ``sim_fingerprint_ok`` its ``correct``.
#: ``bound`` is the share by which the median may worsen; 0 means exact.
E2E: List[Dict[str, Any]] = [
    {
        "name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25,
        "workloads": ALL, "contract": "end_to_end",
        "definition": "process start to workload ready to measure: imports, "
        "compile, construction, install, ring boot, monitor install, warm-up",
    },
    {
        "name": "events_per_s", "unit": "events/s", "better": "higher", "bound": 0.25,
        "workloads": ALL, "contract": "end_to_end",
        "definition": "logical events per wall second of the measured window "
        "(ring_*: messages delivered + rule executions; rules_single: rule "
        "executions; forensic_chains: store events appended, over run + close)",
    },
    {
        "name": "run_wall_s", "unit": "s", "better": "lower", "bound": 0.25,
        "workloads": ALL, "contract": "end_to_end",
        "definition": "whole life of the workload subprocess: setup + window + "
        "flush + slices/scans + checks",
    },
    {
        "name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.15,
        "workloads": ALL, "contract": "end_to_end",
        "definition": "ru_maxrss of the workload subprocess",
    },
    {
        "name": "slice_cold_ms_p50", "unit": "ms", "better": "lower", "bound": 0.25,
        "workloads": STORE, "contract": "per_layer",
        "definition": "median cold backward slice, each including its own "
        "ForensicStore.open",
    },
    {
        "name": "scan_events_per_s", "unit": "events/s", "better": "higher", "bound": 0.25,
        "workloads": ["forensic_chains"], "contract": "per_layer",
        "definition": "records returned per second over the five events() scans",
    },
    {
        "name": "store_bytes_per_event", "unit": "B/event", "better": "lower", "bound": 0.0,
        "workloads": STORE, "contract": "per_layer",
        "definition": "bytes_written / events_appended after close",
    },
    {
        "name": "ops_failed_share", "unit": "ratio", "better": "lower", "bound": 0.0,
        "workloads": ALL, "contract": "result",
        "definition": "failed / attempted checked operations",
    },
    {
        "name": "sim_fingerprint_ok", "unit": "0/1", "better": "higher", "bound": 0.0,
        "workloads": ALL, "contract": "result",
        "definition": "1 iff the digest of simulated statistics is identical "
        "across all repeats and the traced run",
    },
]

#: Layer -> prefixes of paths under ``repro/`` whose functions it owns
#: (``store/`` is the forensic store package; ``runtime/store.py`` is the
#: table catalogue).  Anything unmatched, and the benchmark's own files,
#: is ``other``.
LAYERS: Dict[str, tuple] = {
    "overlog": ("overlog/",),
    "runtime.planner": ("runtime/planner.py",),
    "runtime.strand": ("runtime/strand.py", "runtime/elements.py", "runtime/aggregates.py"),
    "runtime.table": ("runtime/table.py", "runtime/store.py", "runtime/tuples.py"),
    "runtime.node": ("runtime/node.py", "runtime/work.py"),
    "sim": ("sim/",),
    "net.network": ("net/network.py", "net/channel.py", "net/topology.py", "net/address.py"),
    "net.marshal": ("net/marshal.py",),
    "introspect.tracer": ("introspect/tracer.py",),
    "introspect.logger": ("introspect/logger.py",),
    "introspect.tuple_table": ("introspect/tuple_table.py",),
    "obs": ("obs/",),
    "overload": ("overload/",),
    "store": ("store/",),
    "chord": ("chord/", "monitors/", "core/"),
    "other": (),
}

KERNEL_ON = ["ring_bare", "ring_observed"]
OBSERVED_ON = ["ring_observed", "forensic_chains"]
UNOBSERVED = ["ring_bare", "rules_single"]

#: Which end-to-end metric each layer's self time should move, where,
#: and where the prediction is no change (written before measuring).
LAYER_MOVES: Dict[str, Dict[str, List[str]]] = {
    "overlog": {"moves": ["events_per_s", "setup_s"], "on": ["rules_single"], "not_on": []},
    "runtime.planner": {"moves": ["setup_s"], "on": ["rules_single", "ring_bare"], "not_on": []},
    "runtime.strand": {"moves": ["events_per_s"], "on": ALL, "not_on": []},
    "runtime.table": {"moves": ["events_per_s"], "on": ALL, "not_on": []},
    "runtime.node": {"moves": ["events_per_s"], "on": ALL, "not_on": []},
    "sim": {"moves": ["events_per_s"], "on": KERNEL_ON, "not_on": []},
    "net.network": {"moves": ["events_per_s"], "on": KERNEL_ON, "not_on": ["rules_single"]},
    "net.marshal": {"moves": ["events_per_s"], "on": KERNEL_ON, "not_on": ["rules_single"]},
    "introspect.tracer": {"moves": ["events_per_s", "setup_s", "peak_rss_mb"], "on": OBSERVED_ON, "not_on": UNOBSERVED},
    "introspect.logger": {"moves": ["events_per_s", "setup_s", "peak_rss_mb"], "on": OBSERVED_ON, "not_on": UNOBSERVED},
    "introspect.tuple_table": {"moves": ["events_per_s", "setup_s", "peak_rss_mb"], "on": OBSERVED_ON, "not_on": UNOBSERVED},
    "obs": {"moves": ["events_per_s", "setup_s", "peak_rss_mb"], "on": ["ring_observed"], "not_on": UNOBSERVED},
    "overload": {"moves": ["events_per_s", "setup_s"], "on": ["ring_observed"], "not_on": UNOBSERVED},
    "store": {"moves": ["events_per_s", "slice_cold_ms_p50", "scan_events_per_s", "store_bytes_per_event"], "on": OBSERVED_ON, "not_on": UNOBSERVED},
    "chord": {"moves": ["setup_s"], "on": KERNEL_ON, "not_on": ["rules_single", "forensic_chains"]},
    "other": {"moves": [], "on": ALL, "not_on": []},
}


def _m(name, unit, better, moves, on, not_on=()):
    return {
        "name": name, "unit": unit, "better": better,
        "moves": list(moves), "on": list(on), "not_on": list(not_on),
    }


def _per_layer() -> List[Dict[str, Any]]:
    out = []
    for layer, move in LAYER_MOVES.items():
        out.append(_m(f"{layer}.self_s", "s", "lower", **move))
        out.append(_m(f"{layer}.share", "ratio", "lower", **move))
    ring = KERNEL_ON
    out += [
        # Phase times, from the benchmark's own spans (untraced run).
        _m("overlog.compile_s", "s", "lower", ["setup_s"], ["rules_single"]),
        _m("runtime.install_s", "s", "lower", ["setup_s"], ["rules_single", "ring_bare"]),
        _m("sim.boot_s", "s", "lower", ["setup_s"], ring, ["rules_single", "forensic_chains"]),
        _m("monitors.install_s", "s", "lower", ["setup_s"], ring, ["rules_single", "forensic_chains"]),
        _m("sim.window_s", "s", "lower", ["events_per_s", "run_wall_s"], ALL),
        _m("sim.sim_over_wall", "ratio", "higher", ["events_per_s"], ALL),
        _m("store.flush_s", "s", "lower", ["events_per_s"], ["forensic_chains"], UNOBSERVED),
        _m("store.open_ms_p50", "ms", "lower", ["slice_cold_ms_p50"], STORE, UNOBSERVED),
        _m("store.slice_only_ms_p50", "ms", "lower", ["slice_cold_ms_p50"], STORE, UNOBSERVED),
        _m("store.slice_cold_ms_p90", "ms", "lower", ["run_wall_s"], STORE, UNOBSERVED),
        _m("store.scan_s", "s", "lower", ["scan_events_per_s"], ["forensic_chains"], UNOBSERVED),
        # Exact counts over the measured window, from public counters.
        _m("sim.events_dispatched", "count", "lower", ["events_per_s"], ALL),
        _m("sim.kernel_ticks", "count", "lower", ["events_per_s"], ring, ["rules_single", "forensic_chains"]),
        _m("sim.max_tick_events", "count", "higher", ["events_per_s"], ring, ["rules_single", "forensic_chains"]),
        _m("net.messages_sent", "count", "lower", ["events_per_s"], ring + ["forensic_chains"], ["rules_single"]),
        _m("net.messages_delivered", "count", "lower", ["events_per_s"], ring + ["forensic_chains"], ["rules_single"]),
        _m("net.messages_dropped", "count", "lower", ["ops_failed_share"], ring, ["rules_single"]),
        _m("net.bytes_sent", "B", "lower", ["events_per_s"], ring + ["forensic_chains"], ["rules_single"]),
        _m("runtime.rule_executions", "count", "lower", ["events_per_s"], ALL),
        _m("runtime.live_tuples", "count", "lower", ["peak_rss_mb"], ALL),
        _m("introspect.ring_rotations", "count", "lower", ["events_per_s"], OBSERVED_ON, UNOBSERVED),
        _m("obs.spans_recorded", "count", "lower", ["events_per_s"], ["ring_observed"], UNOBSERVED),
        _m("overload.offered", "count", "lower", ["events_per_s"], ["ring_observed"], UNOBSERVED),
        _m("overload.shed", "count", "lower", ["ops_failed_share"], ["ring_observed"], UNOBSERVED),
        _m("overload.deferred", "count", "lower", ["events_per_s"], ["ring_observed"], UNOBSERVED),
        _m("store.events_appended", "count", "lower", ["events_per_s"], OBSERVED_ON, UNOBSERVED),
        _m("store.records_written", "count", "lower", ["events_per_s", "store_bytes_per_event"], OBSERVED_ON, UNOBSERVED),
        _m("store.segments_written", "count", "lower", ["slice_cold_ms_p50"], OBSERVED_ON, UNOBSERVED),
        _m("store.compression_ratio", "ratio", "higher", ["store_bytes_per_event"], OBSERVED_ON, UNOBSERVED),
        _m("chord.ring_mismatches", "count", "lower", ["ops_failed_share"], ring, ["rules_single", "forensic_chains"]),
        _m("chord.lookups_ok", "count", "higher", ["ops_failed_share"], ring, ["rules_single", "forensic_chains"]),
        # Boundary call counts, from the traced run's profile.
        _m("runtime.strand.fire_calls", "count", "lower", ["events_per_s"], ALL),
        _m("runtime.strand.fire_batch_calls", "count", "lower", ["events_per_s"], ["ring_bare"]),
        _m("runtime.strand.batched_call_share", "ratio", "higher", ["events_per_s"], ring, ["rules_single", "forensic_chains"]),
        _m("runtime.table.insert_calls", "count", "lower", ["events_per_s"], ALL),
        _m("runtime.table.probe_calls", "count", "lower", ["events_per_s"], ALL),
        _m("net.network.send_calls", "count", "lower", ["events_per_s"], ring + ["forensic_chains"], ["rules_single"]),
        _m("net.marshal.encode_calls", "count", "lower", ["events_per_s"], ring + ["forensic_chains"], ["rules_single"]),
        _m("introspect.logger.observer_calls", "count", "lower", ["events_per_s"], OBSERVED_ON, UNOBSERVED),
        _m("obs.span_calls", "count", "lower", ["events_per_s"], ["ring_observed"], UNOBSERVED),
        _m("trace.overhead_ratio", "ratio", "lower", [], ALL),
    ]
    return out


PER_LAYER: List[Dict[str, Any]] = _per_layer()


def contract() -> Dict[str, Any]:
    """The exact content of the repo-root ``BENCHMARK.json``."""
    keys = ("name", "unit", "better")
    return {
        "command": ["python3", "-m", "benchmarks.e2e"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": w["why"]} for name, w in WORKLOADS.items()
        ],
        "end_to_end": [
            {k: m[k] for k in keys + ("bound",)}
            for m in E2E
            if m["contract"] == "end_to_end"
        ],
        "per_layer": [
            {k: m[k] for k in keys}
            for m in E2E + PER_LAYER
            if m.get("contract", "per_layer") == "per_layer"
        ],
    }
