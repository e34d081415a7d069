"""Discrete-event simulation kernel.

The paper evaluates P2 on a real testbed of 21 processes; this package is
the deterministic substitute: a virtual clock, an ordered event queue, and
a seeded random source.  Everything above it (network, nodes, monitors)
schedules callbacks here, so entire distributed runs are reproducible from
a single seed.
"""

from repro.sim.clock import Clock
from repro.sim.events import ScheduledEvent
from repro.sim.simulator import Simulator
from repro.sim.rand import SimRandom

__all__ = ["Clock", "ScheduledEvent", "Simulator", "SimRandom"]
