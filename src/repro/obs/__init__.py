"""Unified telemetry: events, metrics, flight recorder, and exporters.

The observability plane the paper argues every distributed system
should carry (§2–§3 apply it to the *monitored* system; this package
applies it to the reproduction itself).  It reads what the layers keep
and records only rare events; nothing here runs per rule firing or per
delivery:

- :mod:`repro.obs.telemetry` — the :class:`Telemetry` hub: instant
  events on the virtual clock, and the registry callbacks over the
  counters and distributions the runtime keeps (rule strands' charged
  work and rows examined, links' latency and backoff);
- :mod:`repro.obs.recorder` — the bounded, deterministic
  :class:`FlightRecorder` ring the events land in;
- :mod:`repro.obs.metrics` — the :class:`MetricsRegistry` of labeled
  counters, gauges, and log-linear histograms, plus lazy callback
  adapters over counters that live elsewhere;
- :mod:`repro.obs.export` — Chrome trace-event JSON (loads in
  Perfetto; ``rule_exec`` spans come from the tracer's ``ruleExec``
  rows), structured JSONL, and Prometheus text exporters;
- :mod:`repro.obs.summarize` — the offline analyzer behind
  ``python -m repro obs summarize <artifact>``.

Enable it per system with ``System(observability=True)``; export with
``system.export_telemetry(directory)``.  When disabled (the default),
every instrumentation point in the runtime and network layers holds a
``None`` and the telemetry plane costs nothing.
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    HistogramData,
    MetricsRegistry,
)
from repro.obs.recorder import FlightRecorder
from repro.obs.telemetry import Telemetry, wire_system_metrics
from repro.obs.export import (
    chrome_trace,
    jsonl_lines,
    prometheus_text,
    write_chrome_trace,
    write_jsonl,
    write_prometheus,
)
from repro.obs.summarize import Artifact, summarize

__all__ = [
    "Telemetry",
    "FlightRecorder",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "HistogramData",
    "wire_system_metrics",
    "chrome_trace",
    "write_chrome_trace",
    "jsonl_lines",
    "write_jsonl",
    "prometheus_text",
    "write_prometheus",
    "Artifact",
    "summarize",
]
