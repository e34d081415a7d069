"""Labeled counters, gauges, and histograms behind one read surface.

The registry is the uniform *read* surface of the telemetry plane:
every number an exporter, the :class:`repro.core.metrics.Meter`, or the
:class:`repro.report.dashboard.Dashboard` wants comes out of here, in
one of two ways:

- **owned instruments** (:class:`Counter`, :class:`Gauge`,
  :class:`Histogram`) hold their own state and are fed directly by
  code that runs a few times per epoch (the aggregation trees);
- **callbacks** adapt counters and distributions that already exist
  elsewhere (``NetworkStats``, the per-node
  :class:`~repro.runtime.work.WorkModel`, each rule strand's charged
  work, each link's latency) into the registry *lazily*: the callable
  runs at snapshot time, so the hot paths keep their own plain
  counters and the registry read costs nothing until somebody looks.

Histograms are log-linear (:mod:`repro.histogram`).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.errors import ReproError
from repro.histogram import (  # noqa: F401  (re-exported)
    DEFAULT_SUBBUCKETS,
    ZERO_BUCKET,
    HistogramData,
    bucket_index,
    bucket_upper,
)

LabelKey = Tuple
SnapshotDict = Dict[LabelKey, object]


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
        key = self._key(labels)
        data = self._series.get(key)
        if data is None:
            data = self._series[key] = HistogramData(self.subbuckets)
        data.observe(value)

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
