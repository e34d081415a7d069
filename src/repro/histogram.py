"""Log-linear histograms: the distributions every layer keeps for itself.

A layer that wants a distribution of something it does — a rule
strand's charged work per firing, a link's delivery latency — keeps a
:class:`HistogramData` of its own and observes into it where the work
happens; the telemetry registry (:mod:`repro.obs.metrics`) only reads
them, at snapshot and export time.

Each power-of-two octave is split into a fixed number of linear
sub-buckets (default 8, ≲ 6 % relative error on quantiles), the scheme
used by HDR-style recorders.  Bucket indices are plain integers
computed with :func:`math.frexp`, so recording is a dict increment and
the layout is identical across platforms — a requirement for
byte-stable exports.
"""

from __future__ import annotations

import math
from typing import Dict

from repro.errors import ReproError

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
    """One recorded distribution."""

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
        buckets = self.buckets
        try:
            buckets[index] += 1
        except KeyError:
            buckets[index] = 1

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
