"""Batch-execution kernel: tick-at-a-time event dispatch.

The continuous loop (:meth:`repro.sim.simulator.Simulator.run_until`)
pops one event at a time.  At a thousand nodes most of that is
scheduler overhead: every message is its own heap entry and its own
callback frame.

This kernel executes one *tick* at a time instead:

1. advance the clock to the earliest pending event time ``t`` (in tick
   mode every event sits on the tick grid);
2. drain **all** events at ``t`` in canonical order
   ``(priority, origin, origin_seq)``;
3. gather grouped events per *group* (the node that executes them) and
   run each group's events in that canonical order, groups in address
   order;
4. treat ungrouped (control/harness) events as ordering barriers: the
   grouped events that canonically precede a control event run before
   it, because control code can touch node state directly (injects,
   kills) and so *is* ordered relative to each node's own event stream;
5. call the ``on_tick`` hooks (the forensic store cuts segments here).

The kernel only *schedules*: what a node does with an event — receive,
pump, fire — is the same code under every loop.  The speed-up comes
from draining a tick in one pass and from the fabric this kernel turns
on: one event per ``(tick, destination)`` instead of one per message
(docs/SCALE.md).

Equivalence contract (docs/SCALE.md): within a tick, nodes interact
only through events scheduled for *later* ticks, and all per-message
randomness is drawn from per-entity streams, so regrouping a tick per
node cannot change any node's observable history.  The differential
battery (``tests/batchexec/``) pins this: per-event and per-tick runs
of every bundled program produce identical final tables, alarm
streams, and campaign verdicts.

An :class:`ExecutionConfig` always means the tick grid (``execution=None``
is the continuous loop); its ``batch_size`` selects the loop on it:

- ``None`` (default) — this kernel.
- ``1`` — the per-event loop in canonical tick order, with per-message
  fabric events: the reference ``tests/batchexec`` compares against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.errors import SimulationError

#: Default tick width (seconds).  Matches the default one-way network
#: latency, so a message sent during tick ``t`` is delivered exactly at
#: tick ``t + 1`` and quantization does not stretch the fabric.
DEFAULT_TICK = 0.01


@dataclass(frozen=True)
class ExecutionConfig:
    """How a :class:`~repro.core.system.System` executes events.

    ``tick`` (> 0) quantizes all scheduling onto a grid.  ``batch_size``
    selects the loop on it: ``None`` is the tick kernel, ``1`` the
    per-event loop; nothing else is accepted.
    """

    batch_size: Optional[int] = None
    tick: float = DEFAULT_TICK

    def __post_init__(self) -> None:
        if self.batch_size not in (None, 1):
            raise SimulationError(
                f"batch_size must be None (tick kernel) or 1 "
                f"(per-event loop): {self.batch_size!r}"
            )
        if not self.tick > 0:
            raise SimulationError(f"tick must be positive: {self.tick}")

    @property
    def batched(self) -> bool:
        """True when the tick kernel (not the per-event loop) runs."""
        return self.batch_size is None

    @property
    def label(self) -> str:
        kind = "batch" if self.batched else "per-tuple"
        return f"{kind}(tick={self.tick:g})"


class BatchKernel:
    """Tick-at-a-time event dispatch over a simulator's queue."""

    def __init__(self, sim) -> None:
        self._sim = sim
        #: Ticks executed (one per distinct event time processed).
        self.ticks = 0
        #: Largest single-tick event batch seen (e2e's ``sim.max_tick_events``).
        self.max_tick_events = 0
        #: Tick-barrier hooks, called with the tick time after all of a
        #: tick's events have run.  The forensic store registers here so
        #: its segment cuts align with tick boundaries instead of
        #: landing mid-tick between two events of the same instant.
        self.on_tick: List[Callable[[float], None]] = []

    def run_until(self, when: float) -> None:
        sim = self._sim
        while True:
            t = sim._peek_time()
            if t is None or t > when:
                break
            events = sim._drain_tick(t)
            if not events:
                continue
            self.ticks += 1
            if len(events) > self.max_tick_events:
                self.max_tick_events = len(events)
            sim._count_event(len(events))
            groups: Dict[str, List] = {}
            for event in events:
                # An earlier event this tick may have cancelled a later
                # one (crash cancelling timers); honour it like the
                # per-event loop's lazy-cancellation pop does.
                if event.cancelled:
                    continue
                group = event.group
                if group is None:
                    # Control code can inject into or kill nodes, so a
                    # control event is ordered relative to each node's
                    # own stream: everything gathered so far sorts
                    # canonically before it and must run first.
                    self._flush(groups)
                    sim._set_origin("")
                    event.callback()
                else:
                    bucket = groups.get(group)
                    if bucket is None:
                        groups[group] = [event]
                    else:
                        bucket.append(event)
            self._flush(groups)
            for hook in self.on_tick:
                hook(t)
        sim._set_origin("")
        sim.clock.advance_to(when)

    def _flush(self, groups: Dict[str, List]) -> None:
        """Run each group's gathered events, in stable address order.

        Node histories are interaction-free within a tick, so group
        order is unobservable; sorting makes it deterministic.
        """
        if not groups:
            return
        sim = self._sim
        for key in sorted(groups):
            sim._set_origin(key)
            for event in groups[key]:
                if not event.cancelled:
                    event.callback()
        groups.clear()
