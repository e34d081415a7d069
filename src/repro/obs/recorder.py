"""The flight recorder: a bounded, deterministic ring of telemetry records.

Records are plain JSON-ready dicts (instant events) appended
in simulation order, so with the same seed the buffer contents — and
everything exported from them — are byte-for-byte identical across
runs.  The ring is bounded: when full, the oldest records fall off and
``dropped`` counts them, so a long run keeps the *recent* window an
operator actually wants after an incident.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List

from repro.errors import ReproError

DEFAULT_CAPACITY = 65536


class FlightRecorder:
    """Bounded ring buffer of event records."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity <= 0:
            raise ReproError(f"recorder capacity must be positive: {capacity}")
        self.capacity = capacity
        self._buffer: deque = deque(maxlen=capacity)
        #: Records accepted into the ring (including since-evicted ones).
        self.recorded = 0

    def record(self, record: Dict) -> None:
        """Append one record (possibly evicting the oldest)."""
        self.recorded += 1
        self._buffer.append(record)

    @property
    def dropped(self) -> int:
        """Records evicted by the ring bound (recorded - still held)."""
        return self.recorded - len(self._buffer)

    def snapshot(self) -> List[Dict]:
        """The ring contents, oldest first."""
        return list(self._buffer)

    def clear(self) -> None:
        self._buffer.clear()
        self.recorded = 0

    def __len__(self) -> int:
        return len(self._buffer)

    def __repr__(self) -> str:
        return (
            f"<FlightRecorder {len(self._buffer)}/{self.capacity} "
            f"dropped={self.dropped}>"
        )
