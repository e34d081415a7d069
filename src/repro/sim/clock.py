"""Virtual clock for the discrete-event simulator.

Time is a float in seconds, starting at 0.0.  Only the simulator advances
the clock; all other components hold a reference and read it.
"""

from __future__ import annotations

from functools import partial
from operator import attrgetter
from typing import Callable

from repro.errors import SimulationError

_NOW = attrgetter("_now")


class Clock:
    """A monotonically non-decreasing virtual clock."""

    def __init__(self) -> None:
        self._now = 0.0

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    def reader(self) -> Callable[[], float]:
        """A callable returning :attr:`now` in no Python frame (the
        property is one), for readers on every hot path."""
        return partial(_NOW, self)

    def advance_to(self, when: float) -> None:
        """Move the clock forward to ``when``.

        Raises :class:`SimulationError` if ``when`` is in the past; the
        simulator must never deliver events out of order.
        """
        if when < self._now:
            raise SimulationError(
                f"clock cannot move backwards: {when} < {self._now}"
            )
        self._now = when

    def __repr__(self) -> str:
        return f"Clock(now={self._now:.6f})"
