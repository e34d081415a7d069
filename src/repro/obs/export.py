"""Exporters: Chrome trace-event JSON, structured JSONL, Prometheus text.

Three artifact formats over one :class:`repro.obs.telemetry.Telemetry`:

- :func:`chrome_trace` / :func:`write_chrome_trace` — the Chrome
  trace-event format (``{"traceEvents": [...]}``) that loads directly
  in Perfetto / ``chrome://tracing``.  Spans become complete (``"X"``)
  events, instant events become ``"i"`` events, and each node gets a
  named thread row via metadata events.
- :func:`jsonl_lines` / :func:`write_jsonl` — one JSON object per line:
  a ``meta`` header, every flight-recorder record, then the full
  metrics snapshot (scalar metrics and histogram lines with their raw
  log-linear buckets).  This is the self-contained artifact
  ``python -m repro obs summarize`` consumes.
- :func:`prometheus_text` / :func:`write_prometheus` — the Prometheus
  exposition text format (counters/gauges verbatim, histograms as
  cumulative ``_bucket{le=...}`` series plus ``_count``/``_sum``).

Everything is derived from the virtual clock and seeded randomness and
serialized with sorted keys and fixed separators, so a given seed
produces **byte-identical** artifacts on every run — the property the
export regression tests pin.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

from repro.obs.metrics import HistogramData, bucket_upper
from repro.obs.telemetry import Telemetry

_JSON_KW = dict(sort_keys=True, separators=(",", ":"))

#: tid reserved for records not attributable to a node (network fabric).
FABRIC_TID = 0


def _us(t: float) -> float:
    """Seconds → microseconds, rounded so formatting is stable."""
    return round(t * 1e6, 3)


def _tid_map(records: List[dict]) -> Dict[str, int]:
    """Stable node → thread-id assignment (sorted node labels)."""
    nodes = sorted(
        {
            rec["attrs"]["node"]
            for rec in records
            if isinstance(rec.get("attrs"), dict) and "node" in rec["attrs"]
        }
    )
    return {node: index + 1 for index, node in enumerate(nodes)}


def chrome_trace(telemetry: Telemetry, meta: Optional[dict] = None) -> dict:
    """Build the Chrome trace-event object from the flight recorder."""
    records = telemetry.recorder.snapshot()
    tids = _tid_map(records)
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
    for rec in records:
        attrs = rec.get("attrs", {})
        tid = tids.get(attrs.get("node"), FABRIC_TID)
        if rec["type"] == "span":
            events.append(
                {
                    "ph": "X",
                    "name": rec["name"],
                    "cat": "span",
                    "ts": _us(rec["t0"]),
                    "dur": _us(rec["t1"] - rec["t0"]),
                    "pid": 1,
                    "tid": tid,
                    "args": dict(
                        attrs, span_id=rec["id"], parent=rec["parent"]
                    ),
                }
            )
        else:
            events.append(
                {
                    "ph": "i",
                    "s": "t",
                    "name": rec["name"],
                    "cat": "event",
                    "ts": _us(rec["t"]),
                    "pid": 1,
                    "tid": tid,
                    "args": dict(attrs),
                }
            )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": dict(meta or {}),
    }


def write_chrome_trace(
    telemetry: Telemetry, path: str, meta: Optional[dict] = None
) -> str:
    text = json.dumps(chrome_trace(telemetry, meta), **_JSON_KW)
    with open(path, "w") as handle:
        handle.write(text + "\n")
    return path


# ----------------------------------------------------------------------
# JSONL


def jsonl_lines(telemetry: Telemetry, meta: Optional[dict] = None) -> List[str]:
    """The JSONL artifact as a list of serialized lines."""
    lines = [json.dumps({"type": "meta", **(meta or {})}, **_JSON_KW)]
    for rec in telemetry.recorder.snapshot():
        lines.append(json.dumps(rec, **_JSON_KW))
    for name, metric, snapshot in telemetry.metrics.collect():
        labelnames = metric.labelnames
        for key in sorted(snapshot, key=lambda k: tuple(map(str, k))):
            value = snapshot[key]
            labels = {n: v for n, v in zip(labelnames, key)}
            if isinstance(value, HistogramData):
                lines.append(
                    json.dumps(
                        {
                            "type": "hist",
                            "name": name,
                            "labels": labels,
                            **value.as_dict(),
                        },
                        **_JSON_KW,
                    )
                )
            else:
                lines.append(
                    json.dumps(
                        {
                            "type": "metric",
                            "name": name,
                            "kind": metric.kind,
                            "labels": labels,
                            "value": value,
                        },
                        **_JSON_KW,
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
                cumulative = 0
                for index in sorted(value.buckets):
                    cumulative += value.buckets[index]
                    upper = bucket_upper(index, value.subbuckets)
                    le_labels = dict(zip(metric.labelnames, key))
                    inner = ",".join(
                        [f'{n}="{_escape_label(v)}"' for n, v in le_labels.items()]
                        + [f'le="{upper!r}"']
                    )
                    out.append(f"{name}_bucket{{{inner}}} {cumulative}")
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
