"""``python -m repro obs summarize <artifact>`` — offline artifact analysis.

Loads an exported telemetry artifact (the JSONL event log by default;
the Chrome trace JSON is also accepted) and prints what an operator or
a CI log reader wants first:

- **top-k slow rules** — per-rule firing counts and duration
  statistics from the ``rule_duration_seconds`` histogram (or, reading
  a Chrome trace, from its ``rule_exec`` spans: the traced nodes'
  retained ``ruleExec`` executions);
- **per-link latency percentiles** — p50/p90/p99/max of
  ``net_message_latency_seconds`` per directed link;
- **drop / retransmit attribution** — the per-reason drop breakdown,
  transport retry counters, and per-link retransmit counts recovered
  from the flight-recorder events;
- **overload / shed attribution** — per-class × per-reason load-shed
  totals, deferred (BUSY-nacked) offers, and the relations that were
  shed or deferred in the recorded window, so an overloaded run can be
  traced back to the offending rule or program (see docs/OVERLOAD.md);
- **in-network aggregation** — per-monitor epoch/flush/late totals,
  collector-inbound volume per evaluation mode, and the planner's
  fallback reasons from the ``agg_*`` metric family
  (see docs/AGGREGATION.md).

This is the external-analyzer half of the telemetry plane: it never
imports the simulator, so any artifact from any run (CI upload, failing
campaign seed) can be inspected after the fact.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro import codec
from repro.errors import ArtifactError
from repro.obs.metrics import HistogramData


class Artifact:
    """Parsed telemetry artifact: records plus metric snapshots."""

    def __init__(self) -> None:
        self.meta: dict = {}
        self.spans: List[dict] = []
        self.events: List[dict] = []
        self.metrics: Dict[str, Dict[Tuple, float]] = {}
        self.hists: Dict[str, Dict[Tuple, HistogramData]] = {}

    # ------------------------------------------------------------------

    @classmethod
    def load(cls, path: str) -> "Artifact":
        """Parse ``path``; anything but a well-formed artifact — an
        unreadable file, text that is not JSON, JSON of another shape —
        is an :class:`~repro.errors.ArtifactError` naming the file."""
        try:
            with open(path) as handle:
                text = handle.read()
            stripped = text.lstrip()
            if stripped.startswith("{") and '"traceEvents"' in stripped[:4096]:
                return cls._from_chrome(codec.loads(text))
            return cls._from_jsonl(text)
        except (OSError, ValueError) as exc:
            raise ArtifactError(path, str(exc)) from exc
        except (KeyError, TypeError, AttributeError) as exc:
            raise ArtifactError(path, f"malformed record: {exc!r}") from exc

    @classmethod
    def _from_jsonl(cls, text: str) -> "Artifact":
        art = cls()
        for number, line in enumerate(text.splitlines(), 1):
            line = line.strip()
            if not line:
                continue
            rec = codec.loads(line)
            if not isinstance(rec, dict):
                raise ValueError(f"line {number} is not a JSON object")
            kind = rec.get("type")
            if kind == "meta":
                art.meta = {k: v for k, v in rec.items() if k != "type"}
            elif kind == "event":
                art.events.append(rec)
            elif kind == "metric":
                key = tuple(rec.get("labels", {}).values())
                art.metrics.setdefault(rec["name"], {})[key] = rec["value"]
            elif kind == "hist":
                key = tuple(rec.get("labels", {}).values())
                art.hists.setdefault(rec["name"], {})[key] = (
                    HistogramData.from_dict(rec)
                )
        return art

    @classmethod
    def _from_chrome(cls, payload: dict) -> "Artifact":
        art = cls()
        events = payload.get("traceEvents")
        if not isinstance(events, list) or not all(
            isinstance(event, dict) for event in events
        ):
            raise ValueError("traceEvents is not a list of objects")
        art.meta = dict(payload.get("otherData", {}))
        for event in events:
            ph = event.get("ph")
            if ph == "X":
                args = event.get("args", {})
                art.spans.append(
                    {
                        "name": event.get("name"),
                        "t0": event.get("ts", 0.0) / 1e6,
                        "t1": (event.get("ts", 0.0) + event.get("dur", 0.0))
                        / 1e6,
                        "attrs": args,
                    }
                )
            elif ph == "i":
                art.events.append(
                    {
                        "name": event.get("name"),
                        "t": event.get("ts", 0.0) / 1e6,
                        "attrs": event.get("args", {}),
                    }
                )
        return art

    # ------------------------------------------------------------------
    # Derived views

    def rule_stats(self) -> List[Tuple[str, dict]]:
        """Per-rule duration statistics, slowest total first."""
        merged: Dict[str, HistogramData] = {}
        for key, data in self.hists.get("rule_duration_seconds", {}).items():
            rule = str(key[1]) if len(key) > 1 else str(key)
            bucket = merged.get(rule)
            if bucket is None:
                merged[rule] = HistogramData.from_dict(data.as_dict())
            else:
                bucket.merge(data)
        if not merged:  # fall back to spans (Chrome trace input)
            for span in self.spans:
                if span.get("name") != "rule_exec":
                    continue
                rule = str(span.get("attrs", {}).get("rule", "?"))
                merged.setdefault(rule, HistogramData()).observe(
                    span["t1"] - span["t0"]
                )
        rows = [
            (
                rule,
                {
                    "count": data.count,
                    "total": data.sum,
                    "mean": data.mean(),
                    "p95": data.percentile(95),
                    "max": data.max if data.count else 0.0,
                },
            )
            for rule, data in merged.items()
        ]
        rows.sort(key=lambda row: (-row[1]["total"], row[0]))
        return rows

    def link_latency(self) -> List[Tuple[str, dict]]:
        """Per-link latency percentiles, busiest link first."""
        rows = []
        for key, data in self.hists.get(
            "net_message_latency_seconds", {}
        ).items():
            link = str(key[0]) if key else "?"
            rows.append(
                (
                    link,
                    {
                        "count": data.count,
                        "p50": data.percentile(50),
                        "p90": data.percentile(90),
                        "p99": data.percentile(99),
                        "max": data.max if data.count else 0.0,
                    },
                )
            )
        rows.sort(key=lambda row: (-row[1]["count"], row[0]))
        return rows

    def drop_attribution(self) -> Dict[str, float]:
        return {
            str(key[0]): value
            for key, value in self.metrics.get("net_dropped_total", {}).items()
        }

    def transport_counters(self) -> Dict[str, float]:
        return {
            str(key[0]): value
            for key, value in self.metrics.get(
                "net_counters_total", {}
            ).items()
        }

    def event_counts(self, name: str, attr: str) -> Dict[str, int]:
        """Count recorder events of ``name`` grouped by one attribute."""
        counts: Dict[str, int] = {}
        for event in self.events:
            if event.get("name") != name:
                continue
            value = str(event.get("attrs", {}).get(attr, "?"))
            counts[value] = counts.get(value, 0) + 1
        return counts

    def overload_sheds(self) -> Dict[Tuple[str, str], float]:
        """Shed totals keyed by ``(class, reason)``, summed over nodes.

        Reads the ``overload_shed_total`` counter.  Label keys arrive
        alphabetized by the JSONL writer (cls, node, reason); returns
        empty when the run had no overload controller.
        """
        merged: Dict[Tuple[str, str], float] = {}
        for key, value in self.metrics.get("overload_shed_total", {}).items():
            cls = str(key[0]) if key else "?"
            reason = str(key[2]) if len(key) > 2 else "?"
            merged[(cls, reason)] = merged.get((cls, reason), 0.0) + value
        return merged

    def overload_deferred(self) -> Dict[str, float]:
        """Deferred totals per class (``overload_deferred_total``)."""
        merged: Dict[str, float] = {}
        for key, value in self.metrics.get(
            "overload_deferred_total", {}
        ).items():
            cls = str(key[0]) if key else "?"
            merged[cls] = merged.get(cls, 0.0) + value
        return merged

    def watch_evictions(self) -> Dict[str, float]:
        """Watch-ring evictions per relation (``watch_evicted_total``)."""
        merged: Dict[str, float] = {}
        for key, value in self.metrics.get("watch_evicted_total", {}).items():
            name = str(key[0]) if key else "?"
            merged[name] = merged.get(name, 0.0) + value
        return merged

    def agg_activity(self) -> Dict[Tuple[str, str], Dict[str, float]]:
        """Per ``(monitor, mode)``: finalized epochs + collector inbound.

        Reads ``agg_epochs_total`` and ``agg_collector_inbound_total``
        (label keys arrive alphabetized: mode, monitor).
        """
        merged: Dict[Tuple[str, str], Dict[str, float]] = {}
        for metric, field in (
            ("agg_epochs_total", "epochs"),
            ("agg_collector_inbound_total", "inbound"),
        ):
            for key, value in self.metrics.get(metric, {}).items():
                mode = str(key[0]) if key else "?"
                monitor = str(key[1]) if len(key) > 1 else "?"
                row = merged.setdefault(
                    (monitor, mode), {"epochs": 0.0, "inbound": 0.0}
                )
                row[field] += value
        return merged

    def agg_traffic(self) -> Dict[str, Dict[str, float]]:
        """Per monitor: partials/raws shipped and late arrivals."""
        merged: Dict[str, Dict[str, float]] = {}
        for metric, field in (
            ("agg_partials_sent_total", "partials"),
            ("agg_raws_sent_total", "raws"),
            ("agg_late_total", "late"),
        ):
            for key, value in self.metrics.get(metric, {}).items():
                monitor = str(key[0]) if key else "?"
                row = merged.setdefault(
                    monitor, {"partials": 0.0, "raws": 0.0, "late": 0.0}
                )
                row[field] += value
        return merged

    def agg_fallbacks(self) -> Dict[Tuple[str, str], float]:
        """Planner fallbacks as ``(monitor, reason) -> rule count``."""
        merged: Dict[Tuple[str, str], float] = {}
        for key, value in self.metrics.get("agg_fallback_total", {}).items():
            monitor = str(key[0]) if key else "?"
            reason = str(key[1]) if len(key) > 1 else "?"
            merged[(monitor, reason)] = merged.get((monitor, reason), 0.0) + value
        return merged


def _ms(seconds: float) -> str:
    return f"{seconds * 1e3:.3f}ms"


def summarize(path: str, top: int = 10) -> str:
    """Render the artifact summary as deterministic text."""
    art = Artifact.load(path)
    lines: List[str] = [f"== telemetry summary: {path} =="]
    if art.meta:
        meta = ", ".join(f"{k}={art.meta[k]}" for k in sorted(art.meta))
        lines.append(f"meta: {meta}")
    lines.append(
        f"records: {len(art.spans)} spans, {len(art.events)} events"
    )

    lines.append("")
    lines.append(f"top {top} slow rules (by total duration):")
    rules = art.rule_stats()
    if not rules:
        lines.append("  (no rule timing data)")
    for rule, stats in rules[:top]:
        lines.append(
            f"  {rule:<16} fires={stats['count']:>7}  "
            f"total={_ms(stats['total']):>12}  mean={_ms(stats['mean']):>10}  "
            f"p95={_ms(stats['p95']):>10}  max={_ms(stats['max']):>10}"
        )

    lines.append("")
    lines.append("per-link latency percentiles:")
    links = art.link_latency()
    if not links:
        lines.append("  (no latency data)")
    for link, stats in links[:top]:
        lines.append(
            f"  {link:<24} n={stats['count']:>7}  p50={_ms(stats['p50'])}  "
            f"p90={_ms(stats['p90'])}  p99={_ms(stats['p99'])}  "
            f"max={_ms(stats['max'])}"
        )

    lines.append("")
    lines.append("drop / retransmit attribution:")
    drops = art.drop_attribution()
    counters = art.transport_counters()
    total_drops = int(sum(drops.values()))
    lines.append(f"  dropped: {total_drops}")
    for reason in sorted(drops):
        lines.append(f"    {reason:<20} {int(drops[reason])}")
    for counter in (
        "messages_retransmitted",
        "send_failures",
        "duplicates_suppressed",
        "gap_skips",
    ):
        if counter in counters:
            lines.append(f"  {counter:<22} {int(counters[counter])}")
    retrans_by_link = art.event_counts("net.retransmit", "link")
    if retrans_by_link:
        lines.append("  retransmits by link (recorded window):")
        for link in sorted(retrans_by_link):
            lines.append(f"    {link:<24} {retrans_by_link[link]}")
    drop_by_link = art.event_counts("net.drop", "link")
    if drop_by_link:
        lines.append("  drops by link (recorded window):")
        for link in sorted(drop_by_link):
            lines.append(f"    {link:<24} {drop_by_link[link]}")

    sheds = {k: v for k, v in art.overload_sheds().items() if v}
    deferred = {k: v for k, v in art.overload_deferred().items() if v}
    shed_by_relation = art.event_counts("overload.shed", "relation")
    defer_by_relation = art.event_counts("overload.defer", "relation")
    evictions = art.watch_evictions()
    if sheds or deferred or shed_by_relation or defer_by_relation or evictions:
        lines.append("")
        lines.append("overload / shed attribution:")
        lines.append(f"  shed: {int(sum(sheds.values()))}")
        for cls, reason in sorted(sheds):
            lines.append(
                f"    {cls + '/' + reason:<28} {int(sheds[(cls, reason)])}"
            )
        if deferred:
            lines.append(f"  deferred: {int(sum(deferred.values()))}")
            for cls in sorted(deferred):
                lines.append(f"    {cls:<28} {int(deferred[cls])}")
        if shed_by_relation:
            lines.append("  sheds by relation (recorded window):")
            for name in sorted(shed_by_relation):
                lines.append(f"    {name:<24} {shed_by_relation[name]}")
        if defer_by_relation:
            lines.append("  defers by relation (recorded window):")
            for name in sorted(defer_by_relation):
                lines.append(f"    {name:<24} {defer_by_relation[name]}")
        if evictions:
            lines.append("  watch-ring evictions:")
            for name in sorted(evictions):
                lines.append(f"    {name:<24} {int(evictions[name])}")

    activity = art.agg_activity()
    traffic = art.agg_traffic()
    fallbacks = {k: v for k, v in art.agg_fallbacks().items() if v}
    flushes = art.event_counts("agg.flush", "monitor")
    late_events = art.event_counts("agg.late", "monitor")
    if activity or traffic or fallbacks:
        lines.append("")
        lines.append("in-network aggregation:")
        for monitor, mode in sorted(activity):
            row = activity[(monitor, mode)]
            lines.append(
                f"  {monitor + ' [' + mode + ']':<28} "
                f"epochs={int(row['epochs']):>4}  "
                f"collector-inbound={int(row['inbound'])}"
            )
        for monitor in sorted(traffic):
            row = traffic[monitor]
            lines.append(
                f"  {monitor:<28} partials={int(row['partials'])}  "
                f"raws={int(row['raws'])}  late={int(row['late'])}"
            )
        if fallbacks:
            lines.append("  planner fallbacks (centralized path):")
            for monitor, reason in sorted(fallbacks):
                lines.append(
                    f"    {monitor + '/' + reason:<36} "
                    f"{int(fallbacks[(monitor, reason)])}"
                )
        if flushes:
            lines.append("  flushes by monitor (recorded window):")
            for name in sorted(flushes):
                lines.append(f"    {name:<24} {flushes[name]}")
        if late_events:
            lines.append("  late arrivals by monitor (recorded window):")
            for name in sorted(late_events):
                lines.append(f"    {name:<24} {late_events[name]}")
    return "\n".join(lines)


def register(commands) -> None:
    """Add ``obs summarize`` to the ``python -m repro`` parser."""
    parser = commands.add_parser(
        "obs", help="offline analysis of exported telemetry artifacts"
    )
    sub = parser.add_subparsers(dest="obs_command", required=True)
    p_sum = sub.add_parser(
        "summarize", help="summarize a .jsonl or Chrome-trace artifact"
    )
    p_sum.add_argument("artifact", help="path to the exported artifact")
    p_sum.add_argument(
        "--top", type=int, default=10, help="rows per section (default 10)"
    )
    p_sum.set_defaults(run=run_summarize)


def run_summarize(args) -> int:
    print(summarize(args.artifact, top=args.top))
    return 0
