"""How a :class:`~repro.core.system.System` executes events.

Every run executes on the simulator's one loop, a tick at a time
(:mod:`repro.sim.simulator`), with the fabric coalescing each tick's
messages to a node into one event.  The only choice left is the width
of the tick grid.  The one-event-at-a-time loop that used to be the
other choice lives on as a test-side reference
(``tests/runtime/reference_loop.py``), which the differential
batteries compare this loop against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import SimulationError
from repro.sim.simulator import DEFAULT_TICK

__all__ = ["DEFAULT_TICK", "ExecutionConfig"]


@dataclass(frozen=True)
class ExecutionConfig:
    """The tick grid a :class:`~repro.core.system.System` runs on.

    ``tick`` (> 0) is the grid all scheduling snaps onto.  ``batch_size``
    accepts ``None`` only: it once selected the per-event loop, which is
    now a test-side reference.
    """

    batch_size: Optional[int] = None
    tick: float = DEFAULT_TICK

    def __post_init__(self) -> None:
        if self.batch_size is not None:
            raise SimulationError(
                f"batch_size must be None: {self.batch_size!r} (the "
                "per-event loop is the test-side reference, "
                "tests/runtime/reference_loop.py)"
            )
        if not self.tick > 0:
            raise SimulationError(f"tick must be positive: {self.tick}")
