"""The telemetry hub: instant events, the flight recorder, the registry.

One :class:`Telemetry` object serves a whole
:class:`repro.core.system.System`.  It owns the flight recorder and the
metrics registry, and :meth:`Telemetry.event` is its one write
primitive: an instant record of something rare (drops, retransmits,
fault injections, monitor alarms, phase markers).

Telemetry reads, never wraps: nothing is recorded per rule firing or
per delivery.  Rule strands keep their own charged-work and
rows-examined distributions and links their own latency and backoff
distributions (:mod:`repro.histogram`); the registry reads them, like
every other counter the runtime already keeps, through the lazy
callbacks :func:`wire_system_metrics` registers.  A rule firing's
timing is already a relation — the tracer's ``ruleExec`` rows — and
the Chrome-trace export draws its ``rule_exec`` spans from those
(:func:`repro.obs.export.chrome_trace`).

**Zero-cost when disabled**: ``event()`` returns immediately, but the
callers do one better — every hot-path site in the runtime/net layers
holds ``obs = None`` when telemetry is off and never records at all,
which ``tests/obs/test_no_heisenberg.py`` and the calls-per-firing
ceilings in ``tests/perf_guard`` pin.

The metrics registry is *always* live (its callback adapters cost
nothing until read), which is what lets :class:`repro.core.metrics.Meter`
and the dashboard read through it unconditionally.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.histogram import HistogramData
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import DEFAULT_CAPACITY, FlightRecorder

Clock = Callable[[], float]


class Telemetry:
    """The per-system telemetry plane (see module docstring)."""

    def __init__(
        self,
        clock: Clock,
        enabled: bool = False,
        capacity: int = DEFAULT_CAPACITY,
    ) -> None:
        self.clock = clock
        self.enabled = enabled
        self.recorder = FlightRecorder(capacity=capacity)
        self.metrics = MetricsRegistry()

    def event(self, name: str, **attrs) -> None:
        """Record an instant event (no-op when disabled)."""
        if not self.enabled:
            return
        self.recorder.record(
            {"type": "event", "name": name, "t": self.clock(), "attrs": attrs}
        )


def wire_system_metrics(telemetry: Telemetry, system) -> None:
    """Register the standard registry callbacks over a ``System``.

    These adapt the counters that already exist — ``NetworkStats``, the
    per-node work models, table occupancy, the strands' and links' own
    distributions — into the registry, so the Meter, the dashboard, and
    the exporters all read one surface and nothing reaches into another
    layer's internals.  Callbacks close over the *system*, not a node
    list, so nodes added later are included automatically, and a strand
    that is uninstalled drops out of every per-rule series at once.
    """
    reg = telemetry.metrics
    stats = system.network.stats

    scalar_fields = (
        "messages_sent",
        "messages_delivered",
        "messages_dropped",
        "bytes_sent",
        "messages_retransmitted",
        "messages_duplicated",
        "messages_reordered",
        "duplicates_suppressed",
        "acks_sent",
        "acks_dropped",
        "send_failures",
        "gap_skips",
        "busy_nacks",
        "backlogged",
        "held_overflow",
    )
    reg.register_callback(
        "net_counters_total",
        lambda: {(f,): getattr(stats, f) for f in scalar_fields},
        help="aggregate network/transport counters by name",
        labelnames=("counter",),
    )
    reg.register_callback(
        "net_sent_total",
        lambda: {(str(a),): c for a, c in stats.per_node_sent.items()},
        help="application messages sent per node",
        labelnames=("node",),
    )
    reg.register_callback(
        "net_received_total",
        lambda: {(str(a),): c for a, c in stats.per_node_received.items()},
        help="messages delivered per node",
        labelnames=("node",),
    )
    reg.register_callback(
        "net_dropped_total",
        lambda: {(r,): c for r, c in stats.drop_reasons.items()},
        help="dropped messages by drop reason",
        labelnames=("reason",),
    )
    reg.register_callback(
        "net_send_failures_total",
        lambda: {(str(a),): c for a, c in stats.per_node_failed.items()},
        help="sender-visible reliable-transport failures per node",
        labelnames=("node",),
    )
    reg.register_callback(
        "node_busy_seconds",
        lambda: {
            (str(a),): n.work.busy_seconds for a, n in system.nodes.items()
        },
        help="work-model busy seconds accumulated per node",
        labelnames=("node",),
        kind="gauge",
    )
    reg.register_callback(
        "node_work_ops_total",
        lambda: {
            (str(a), op): c
            for a, n in system.nodes.items()
            for op, c in n.work.counters.counts.items()
        },
        help="work-model operation counts per node and op",
        labelnames=("node", "op"),
    )
    reg.register_callback(
        "node_live_tuples",
        lambda: {(str(a),): n.live_tuples() for a, n in system.nodes.items()},
        help="current table occupancy per node",
        labelnames=("node",),
        kind="gauge",
    )
    reg.register_callback(
        "node_memory_bytes",
        lambda: {(str(a),): n.memory_bytes() for a, n in system.nodes.items()},
        help="estimated stored-tuple bytes per node",
        labelnames=("node",),
        kind="gauge",
    )
    reg.register_callback(
        "node_bytes_delivered_total",
        lambda: {
            (str(a),): n.bytes_delivered for a, n in system.nodes.items()
        },
        help="bytes of tuples delivered per node (allocation churn)",
        labelnames=("node",),
    )
    reg.register_callback(
        "node_rule_executions_total",
        lambda: {
            (str(a),): n.rule_executions for a, n in system.nodes.items()
        },
        help="rule-strand firings per node",
        labelnames=("node",),
    )

    def _per_rule(count: str):
        totals: Dict[tuple, int] = {}
        for address, node in system.nodes.items():
            for strand in node.strands:
                n = getattr(strand, count)
                if n:
                    key = (str(address), strand.rule_id)
                    totals[key] = totals.get(key, 0) + n
        return totals

    reg.register_callback(
        "strand_inputs_total",
        lambda: _per_rule("firings"),
        help="trigger tuples matched by rule strands",
        labelnames=("node", "rule"),
    )
    reg.register_callback(
        "strand_outputs_total",
        lambda: _per_rule("outputs"),
        help="head actions (emits and deletes) produced by rule strands",
        labelnames=("node", "rule"),
    )

    def _per_strand(attr: str):
        # A rule's strands (one per trigger) fold into one series; the
        # strands' own distributions are never written to.
        totals: Dict[tuple, HistogramData] = {}
        for address, node in system.nodes.items():
            for strand in node.strands:
                data = getattr(strand, attr)
                if data is not None:
                    key = (str(address), strand.rule_id)
                    if key not in totals:
                        totals[key] = HistogramData(data.subbuckets)
                    totals[key].merge(data)
        return totals

    reg.register_callback(
        "rule_duration_seconds",
        lambda: _per_strand("work_time"),
        help="per-firing rule-strand duration on the work micro-clock",
        labelnames=("node", "rule"),
        kind="histogram",
    )
    reg.register_callback(
        "join_rows_examined",
        lambda: _per_strand("rows_examined"),
        help="rows examined by the join elements of one rule firing",
        labelnames=("node", "rule"),
        kind="histogram",
    )

    def _per_link(links: Dict[tuple, HistogramData]):
        return {(f"{src}->{dst}",): data for (src, dst), data in links.items()}

    reg.register_callback(
        "net_message_latency_seconds",
        lambda: _per_link(system.network.link_latency),
        help="send-to-delivery latency per directed link",
        labelnames=("link",),
        kind="histogram",
    )
    reg.register_callback(
        "net_retransmit_backoff_seconds",
        lambda: _per_link(system.network.link_backoff),
        help="armed retransmit timeouts per directed link",
        labelnames=("link",),
        kind="histogram",
    )
    reg.register_callback(
        "net_channel_pending",
        lambda: {
            (link,): state["pending"]
            for link, state in system.network.channel_states().items()
            if "pending" in state
        },
        help="unacknowledged reliable-mode messages per channel",
        labelnames=("link",),
        kind="gauge",
    )
    reg.register_callback(
        "net_channel_held",
        lambda: {
            (link,): state["held"]
            for link, state in system.network.channel_states().items()
            if "held" in state
        },
        help="frames held behind a sequence gap per channel",
        labelnames=("link",),
        kind="gauge",
    )
    def _controllers():
        return [
            (str(a), n.overload)
            for a, n in system.nodes.items()
            if n.overload is not None
        ]

    reg.register_callback(
        "overload_offered_total",
        lambda: {
            (label, cls): ctrl.counts[cls].offered
            for label, ctrl in _controllers()
            for cls in ctrl.counts
        },
        help="tuples offered to admission control per node and class",
        labelnames=("node", "cls"),
    )
    reg.register_callback(
        "overload_admitted_total",
        lambda: {
            (label, cls): ctrl.counts[cls].admitted
            for label, ctrl in _controllers()
            for cls in ctrl.counts
        },
        help="tuples admitted per node and class",
        labelnames=("node", "cls"),
    )
    reg.register_callback(
        "overload_shed_total",
        lambda: {
            (label, cls, reason): count
            for label, ctrl in _controllers()
            for cls in ctrl.counts
            for reason, count in ctrl.counts[cls].shed_reasons.items()
        },
        help="tuples shed per node, class, and shed reason",
        labelnames=("node", "cls", "reason"),
    )
    reg.register_callback(
        "overload_deferred_total",
        lambda: {
            (label, cls): ctrl.counts[cls].deferred
            for label, ctrl in _controllers()
            for cls in ctrl.counts
        },
        help="tuples deferred via BUSY backpressure per node and class",
        labelnames=("node", "cls"),
    )
    reg.register_callback(
        "overload_mailbox_depth",
        lambda: {
            (label,): len(ctrl.mailbox) for label, ctrl in _controllers()
        },
        help="current inbound-mailbox depth per node",
        labelnames=("node",),
        kind="gauge",
    )
    reg.register_callback(
        "overload_queue_peak",
        lambda: {
            (label, queue): peak
            for label, ctrl in _controllers()
            for queue, peak in (
                ("mailbox", ctrl.mailbox.depth_peak),
                ("strand_queue", ctrl.strand_state.depth_peak),
            )
        },
        help="high-water depth per node and queue",
        labelnames=("node", "queue"),
        kind="gauge",
    )
    reg.register_callback(
        "overload_shedding",
        lambda: {
            (label,): int(ctrl.shed_active)
            for label, ctrl in _controllers()
        },
        help="1 while a node's admission control is shedding",
        labelnames=("node",),
        kind="gauge",
    )
    reg.register_callback(
        "watch_evicted_total",
        lambda: {
            (str(a), name): count
            for a, n in system.nodes.items()
            for name, count in n.watch_evicted.items()
        },
        help="oldest entries evicted from watch rings per node and watch",
        labelnames=("node", "name"),
    )
    reg.register_callback(
        "obs_recorder",
        lambda: {
            ("recorded",): telemetry.recorder.recorded,
            ("dropped",): telemetry.recorder.dropped,
        },
        help="flight-recorder accounting",
        labelnames=("counter",),
    )

    def _store():
        return getattr(system, "store", None)

    reg.register_callback(
        "store_counters_total",
        lambda: (
            {}
            if _store() is None
            else {
                ("events_appended",): _store().events_appended,
                ("records_written",): _store().records_written,
                ("segments_written",): _store().segments_written,
                ("bursts_written",): _store().bursts_written,
                ("flushes",): _store().flushes,
            }
        ),
        help="forensic-store write-path counters by name",
        labelnames=("counter",),
    )
    reg.register_callback(
        "store_bytes_written_total",
        lambda: {(): _store().bytes_written} if _store() else {},
        help="segment bytes written by the forensic store",
    )
    reg.register_callback(
        "store_buffered_events",
        lambda: {(): _store().buffered} if _store() else {},
        help="captured events awaiting the next segment flush",
        kind="gauge",
    )
    reg.register_callback(
        "store_ring_rotations_total",
        lambda: {
            (node, ring): count
            for (node, ring), count in getattr(
                system, "ring_rotations", {}
            ).items()
        },
        help="introspection-ring evictions per node and ring",
        labelnames=("node", "ring"),
    )
