"""Exporters: Chrome trace-event JSON, structured JSONL, Prometheus text.

Three artifact formats over one :class:`repro.obs.telemetry.Telemetry`:

- :func:`chrome_trace` / :func:`write_chrome_trace` — the Chrome
  trace-event format (``{"traceEvents": [...]}``) that loads directly
  in Perfetto / ``chrome://tracing``.  Each rule execution the tracer
  retains (a ``ruleExec`` row with ``IsEvent`` true) becomes a complete
  (``"X"``) ``rule_exec`` event from ``InT`` to ``OutT``, recorder
  events become instant (``"i"``) events, and each node gets a named
  thread row via metadata events.  An untraced run has no ``X`` events.
- :func:`jsonl_lines` / :func:`write_jsonl` — one JSON object per line:
  a ``meta`` header, every flight-recorder event, then the full
  metrics snapshot (scalar metrics and histogram lines with their raw
  log-linear buckets).  This is the self-contained artifact
  ``python -m repro obs summarize`` consumes.
- :func:`prometheus_text` / :func:`write_prometheus` — the Prometheus
  exposition text format (counters/gauges verbatim, histograms as
  cumulative ``_bucket{le=...}`` series ending in ``le="+Inf"``, plus
  ``_count``/``_sum``).

Everything is derived from the virtual clock and seeded randomness and
serialized by the canonical writer of :mod:`repro.codec`, so a given seed
produces **byte-identical** artifacts on every run — the property the
export regression tests pin.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Tuple

from repro import codec
from repro.obs.metrics import HistogramData, bucket_upper
from repro.obs.telemetry import Telemetry

#: tid reserved for records not attributable to a node (network fabric).
FABRIC_TID = 0


def _us(t: float) -> float:
    """Seconds → microseconds, rounded so formatting is stable."""
    return round(t * 1e6, 3)


def chrome_trace(
    telemetry: Telemetry,
    meta: Optional[dict] = None,
    executions: Iterable[Tuple] = (),
) -> dict:
    """Build the Chrome trace-event object.

    ``executions`` are ``ruleExec`` rows' values, ``(node, rule, cause,
    effect, in_t, out_t, is_event)``; those with ``is_event`` true
    become the ``rule_exec`` spans.
    """
    records = telemetry.recorder.snapshot()
    spans = [values for values in executions if values[6]]
    nodes = {str(values[0]) for values in spans}
    nodes.update(
        rec["attrs"]["node"] for rec in records if "node" in rec["attrs"]
    )
    tids = {node: index + 1 for index, node in enumerate(sorted(nodes))}
    events: List[dict] = [
        {
            "ph": "M",
            "name": "process_name",
            "pid": 1,
            "tid": 0,
            "args": {"name": "repro"},
        },
        {
            "ph": "M",
            "name": "thread_name",
            "pid": 1,
            "tid": FABRIC_TID,
            "args": {"name": "fabric"},
        },
    ]
    for node, tid in tids.items():
        events.append(
            {
                "ph": "M",
                "name": "thread_name",
                "pid": 1,
                "tid": tid,
                "args": {"name": node},
            }
        )
    for node, rule, cause, effect, in_t, out_t, _ in spans:
        node = str(node)
        events.append(
            {
                "ph": "X",
                "name": "rule_exec",
                "cat": "rule",
                "ts": _us(in_t),
                "dur": _us(out_t - in_t),
                "pid": 1,
                "tid": tids[node],
                "args": {
                    "node": node,
                    "rule": rule,
                    "cause": cause,
                    "effect": effect,
                },
            }
        )
    for rec in records:
        attrs = rec["attrs"]
        events.append(
            {
                "ph": "i",
                "s": "t",
                "name": rec["name"],
                "cat": "event",
                "ts": _us(rec["t"]),
                "pid": 1,
                "tid": tids.get(attrs.get("node"), FABRIC_TID),
                "args": dict(attrs),
            }
        )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": dict(meta or {}),
    }


def write_chrome_trace(
    telemetry: Telemetry,
    path: str,
    meta: Optional[dict] = None,
    executions: Iterable[Tuple] = (),
) -> str:
    text = codec.dumps(chrome_trace(telemetry, meta, executions))
    with open(path, "w") as handle:
        handle.write(text + "\n")
    return path


# ----------------------------------------------------------------------
# JSONL


def jsonl_lines(telemetry: Telemetry, meta: Optional[dict] = None) -> List[str]:
    """The JSONL artifact as a list of serialized lines."""
    lines = [codec.dumps({"type": "meta", **(meta or {})})]
    for rec in telemetry.recorder.snapshot():
        lines.append(codec.dumps(rec))
    for name, metric, snapshot in telemetry.metrics.collect():
        labelnames = metric.labelnames
        for key in sorted(snapshot, key=lambda k: tuple(map(str, k))):
            value = snapshot[key]
            labels = {n: v for n, v in zip(labelnames, key)}
            if isinstance(value, HistogramData):
                lines.append(
                    codec.dumps(
                        {
                            "type": "hist",
                            "name": name,
                            "labels": labels,
                            **value.as_dict(),
                        }
                    )
                )
            else:
                lines.append(
                    codec.dumps(
                        {
                            "type": "metric",
                            "name": name,
                            "kind": metric.kind,
                            "labels": labels,
                            "value": value,
                        }
                    )
                )
    return lines


def write_jsonl(
    telemetry: Telemetry, path: str, meta: Optional[dict] = None
) -> str:
    with open(path, "w") as handle:
        for line in jsonl_lines(telemetry, meta):
            handle.write(line + "\n")
    return path


# ----------------------------------------------------------------------
# Prometheus text exposition


def _escape_label(value: object) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _fmt_value(value: float) -> str:
    if isinstance(value, bool):  # bools are ints; be explicit
        return "1" if value else "0"
    if isinstance(value, float) and not math.isfinite(value):
        # The exposition format's spellings, not Python's inf / nan.
        return "NaN" if value != value else ("+Inf" if value > 0 else "-Inf")
    if isinstance(value, int) or (
        isinstance(value, float) and value.is_integer()
    ):
        return str(int(value))
    return repr(value)


def _labels_text(labelnames: Tuple[str, ...], key: Tuple) -> str:
    if not labelnames:
        return ""
    inner = ",".join(
        f'{n}="{_escape_label(v)}"' for n, v in zip(labelnames, key)
    )
    return "{" + inner + "}"


def prometheus_text(telemetry: Telemetry) -> str:
    """Render the registry in the Prometheus text exposition format."""
    out: List[str] = []
    for name, metric, snapshot in telemetry.metrics.collect():
        if metric.help:
            out.append(f"# HELP {name} {metric.help}")
        kind = metric.kind if metric.kind in ("counter", "gauge", "histogram") else "untyped"
        out.append(f"# TYPE {name} {kind}")
        for key in sorted(snapshot, key=lambda k: tuple(map(str, k))):
            value = snapshot[key]
            if isinstance(value, HistogramData):
                le_names = metric.labelnames + ("le",)
                cumulative = 0
                for index in sorted(value.buckets):
                    cumulative += value.buckets[index]
                    upper = repr(bucket_upper(index, value.subbuckets))
                    labels = _labels_text(le_names, key + (upper,))
                    out.append(f"{name}_bucket{labels} {cumulative}")
                # The format requires a last bucket, +Inf, equal to _count.
                labels = _labels_text(le_names, key + ("+Inf",))
                out.append(f"{name}_bucket{labels} {value.count}")
                labels = _labels_text(metric.labelnames, key)
                out.append(f"{name}_count{labels} {value.count}")
                out.append(f"{name}_sum{labels} {_fmt_value(value.sum)}")
            else:
                labels = _labels_text(metric.labelnames, key)
                out.append(f"{name}{labels} {_fmt_value(value)}")
    return "\n".join(out) + "\n"


def write_prometheus(telemetry: Telemetry, path: str) -> str:
    with open(path, "w") as handle:
        handle.write(prometheus_text(telemetry))
    return path
