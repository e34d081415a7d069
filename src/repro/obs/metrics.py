"""Labeled counters, gauges, and log-linear histograms.

The registry is the uniform *read* surface of the telemetry plane:
every number an exporter, the :class:`repro.core.metrics.Meter`, or the
:class:`repro.report.dashboard.Dashboard` wants comes out of here, in
one of two ways:

- **owned instruments** (:class:`Counter`, :class:`Gauge`,
  :class:`Histogram`) hold their own state and are fed directly by
  instrumentation points (e.g. the message-latency histogram);
- **callbacks** adapt counters that already exist elsewhere
  (``NetworkStats``, the per-node :class:`~repro.runtime.work.WorkModel`)
  into the registry *lazily*: the callable runs at snapshot time, so the
  hot paths keep their plain attribute increments and the registry read
  costs nothing until somebody looks.

Histograms are **log-linear**: each power-of-two octave is split into a
fixed number of linear sub-buckets (default 8, ≲ 6 % relative error on
quantiles), the scheme used by HDR-style recorders.  Bucket indices are
plain integers computed with :func:`math.frexp`, so recording is a dict
increment and the layout is identical across platforms — a requirement
for byte-stable exports.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.errors import ReproError

LabelKey = Tuple
SnapshotDict = Dict[LabelKey, object]

#: Linear sub-buckets per power-of-two octave.
DEFAULT_SUBBUCKETS = 8

#: Bucket index for values <= 0 (sorts before every real bucket).
ZERO_BUCKET = -(1 << 30)


def bucket_index(value: float, subbuckets: int = DEFAULT_SUBBUCKETS) -> int:
    """Log-linear bucket index of ``value`` (``ZERO_BUCKET`` for <= 0)."""
    if value <= 0.0:
        return ZERO_BUCKET
    mantissa, exponent = math.frexp(value)  # value = m * 2**e, m in [0.5, 1)
    sub = int((mantissa - 0.5) * 2.0 * subbuckets)
    if sub >= subbuckets:  # guard the m -> 1.0 rounding edge
        sub = subbuckets - 1
    return exponent * subbuckets + sub


def bucket_upper(index: int, subbuckets: int = DEFAULT_SUBBUCKETS) -> float:
    """Inclusive upper bound of the bucket with the given index."""
    if index == ZERO_BUCKET:
        return 0.0
    exponent, sub = divmod(index, subbuckets)
    return (2.0 ** (exponent - 1)) * (1.0 + (sub + 1) / subbuckets)


class HistogramData:
    """Recorded distribution for one label combination."""

    __slots__ = ("count", "sum", "min", "max", "buckets", "subbuckets")

    def __init__(self, subbuckets: int = DEFAULT_SUBBUCKETS) -> None:
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.buckets: Dict[int, int] = {}
        self.subbuckets = subbuckets

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        index = bucket_index(value, self.subbuckets)
        self.buckets[index] = self.buckets.get(index, 0) + 1

    def merge(self, other: "HistogramData") -> "HistogramData":
        """Fold ``other`` into this distribution (same bucket layout)."""
        if other.subbuckets != self.subbuckets:
            raise ReproError("cannot merge histograms with different layouts")
        self.count += other.count
        self.sum += other.sum
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        for index, count in other.buckets.items():
            self.buckets[index] = self.buckets.get(index, 0) + count
        return self

    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Approximate p-th percentile (p in [0, 100]) from the buckets.

        Returns the upper bound of the bucket where the cumulative count
        crosses the target rank, clamped to the exact observed max so
        p100 is never an overestimate.
        """
        if self.count == 0:
            return 0.0
        target = (p / 100.0) * self.count
        cumulative = 0
        for index in sorted(self.buckets):
            cumulative += self.buckets[index]
            if cumulative >= target:
                return min(bucket_upper(index, self.subbuckets), self.max)
        return self.max

    def as_dict(self) -> dict:
        """JSON-ready form (bucket keys stringified, stable order)."""
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "subbuckets": self.subbuckets,
            "buckets": {
                str(index): self.buckets[index]
                for index in sorted(self.buckets)
            },
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "HistogramData":
        data = cls(subbuckets=int(payload.get("subbuckets", DEFAULT_SUBBUCKETS)))
        data.count = int(payload.get("count", 0))
        data.sum = float(payload.get("sum", 0.0))
        if data.count:
            data.min = float(payload.get("min", 0.0))
            data.max = float(payload.get("max", 0.0))
        data.buckets = {
            int(index): int(count)
            for index, count in payload.get("buckets", {}).items()
        }
        return data


class Instrument:
    """Common shape: a named, help-texted, label-declared metric."""

    kind = "untyped"

    def __init__(
        self, name: str, help: str = "", labelnames: Iterable[str] = ()
    ) -> None:
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)

    def _key(self, labels: Dict[str, object]) -> LabelKey:
        try:
            return tuple(labels[name] for name in self.labelnames)
        except KeyError as exc:
            raise ReproError(
                f"metric {self.name!r} requires labels {self.labelnames}, "
                f"got {sorted(labels)}"
            ) from exc

    def snapshot(self) -> SnapshotDict:  # pragma: no cover - abstract
        raise NotImplementedError


class Counter(Instrument):
    """A monotonically increasing labeled counter."""

    kind = "counter"

    def __init__(self, name, help="", labelnames=()) -> None:
        super().__init__(name, help, labelnames)
        self._values: Dict[LabelKey, float] = {}

    def inc(self, amount: float = 1, **labels) -> None:
        key = self._key(labels)
        self._values[key] = self._values.get(key, 0) + amount

    def value(self, *key) -> float:
        return self._values.get(tuple(key), 0)

    def snapshot(self) -> SnapshotDict:
        return dict(self._values)


class Gauge(Instrument):
    """A labeled instantaneous value."""

    kind = "gauge"

    def __init__(self, name, help="", labelnames=()) -> None:
        super().__init__(name, help, labelnames)
        self._values: Dict[LabelKey, float] = {}

    def set(self, value: float, **labels) -> None:
        self._values[self._key(labels)] = value

    def value(self, *key) -> float:
        return self._values.get(tuple(key), 0)

    def snapshot(self) -> SnapshotDict:
        return dict(self._values)


class Histogram(Instrument):
    """A labeled log-linear distribution recorder."""

    kind = "histogram"

    def __init__(
        self,
        name,
        help="",
        labelnames=(),
        subbuckets: int = DEFAULT_SUBBUCKETS,
    ) -> None:
        super().__init__(name, help, labelnames)
        self.subbuckets = subbuckets
        self._series: Dict[LabelKey, HistogramData] = {}

    def observe(self, value: float, **labels) -> None:
        self.series(**labels).observe(value)

    def series(self, **labels) -> HistogramData:
        """The distribution of one label combination (created empty on
        first use), for a caller that observes it repeatedly."""
        key = self._key(labels)
        data = self._series.get(key)
        if data is None:
            data = self._series[key] = HistogramData(self.subbuckets)
        return data

    def data(self, *key) -> Optional[HistogramData]:
        return self._series.get(tuple(key))

    def merged(self) -> HistogramData:
        """All label combinations folded into one distribution."""
        merged = HistogramData(self.subbuckets)
        for data in self._series.values():
            merged.merge(data)
        return merged

    def snapshot(self) -> SnapshotDict:
        return dict(self._series)


class CallbackMetric(Instrument):
    """A registry entry whose values come from a callable at read time."""

    def __init__(
        self,
        name: str,
        fn: Callable[[], object],
        help: str = "",
        labelnames: Iterable[str] = (),
        kind: str = "counter",
    ) -> None:
        super().__init__(name, help, labelnames)
        self.kind = kind
        self._fn = fn

    def snapshot(self) -> SnapshotDict:
        values = self._fn()
        if isinstance(values, dict):
            return dict(values)
        return {(): values}


class MetricsRegistry:
    """Named instruments plus lazy callback adapters, one namespace."""

    def __init__(self) -> None:
        self._metrics: Dict[str, Instrument] = {}

    # ------------------------------------------------------------------
    # Declaration (get-or-create, so shared instruments are safe)

    def _declare(self, cls, name, help, labelnames, **kwargs) -> Instrument:
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ReproError(
                    f"metric {name!r} already declared as {existing.kind}"
                )
            return existing
        instrument = cls(name, help=help, labelnames=labelnames, **kwargs)
        self._metrics[name] = instrument
        return instrument

    def counter(self, name, help="", labelnames=()) -> Counter:
        return self._declare(Counter, name, help, labelnames)

    def gauge(self, name, help="", labelnames=()) -> Gauge:
        return self._declare(Gauge, name, help, labelnames)

    def histogram(
        self, name, help="", labelnames=(), subbuckets=DEFAULT_SUBBUCKETS
    ) -> Histogram:
        return self._declare(
            Histogram, name, help, labelnames, subbuckets=subbuckets
        )

    def register_callback(
        self,
        name: str,
        fn: Callable[[], object],
        help: str = "",
        labelnames: Iterable[str] = (),
        kind: str = "counter",
    ) -> CallbackMetric:
        """Expose an external counter structure under a metric name."""
        if name in self._metrics:
            raise ReproError(f"metric {name!r} already registered")
        metric = CallbackMetric(
            name, fn, help=help, labelnames=labelnames, kind=kind
        )
        self._metrics[name] = metric
        return metric

    # ------------------------------------------------------------------
    # Reading

    def get(self, name: str) -> Optional[Instrument]:
        return self._metrics.get(name)

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def snapshot(self, name: str) -> SnapshotDict:
        """Current values of one metric as ``{label_tuple: value}``
        (empty dict for unknown names, so deltas degrade gracefully)."""
        metric = self._metrics.get(name)
        if metric is None:
            return {}
        return metric.snapshot()

    def value(self, name: str, key: LabelKey = ()) -> float:
        """One scalar out of a metric's snapshot (0 when absent)."""
        return self.snapshot(name).get(tuple(key), 0)

    def collect(self) -> List[Tuple[str, Instrument, SnapshotDict]]:
        """Everything, name-sorted — the exporters' input."""
        return [
            (name, self._metrics[name], self._metrics[name].snapshot())
            for name in sorted(self._metrics)
        ]
