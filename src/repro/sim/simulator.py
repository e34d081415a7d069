"""The discrete-event simulator driving all virtual nodes and channels.

Usage::

    sim = Simulator(seed=42)
    sim.schedule(1.0, lambda: print("one second in"))
    sim.run_until(10.0)

Components receive the simulator at construction time and use
:meth:`schedule` / :meth:`schedule_at` for one-shot callbacks, or
:meth:`every` for fixed-period timers.  ``run_until`` processes events in
deterministic order and leaves the clock exactly at the requested time so
back-to-back runs compose.

Two execution regimes (docs/SCALE.md):

- **Legacy (tick=0)** — the continuous-time loop above, bit-identical
  to the pre-batch scheduler: every event fires at its exact scheduled
  instant in ``(time, priority, seq)`` order.
- **Tick mode (tick>0)** — scheduling quantizes onto a grid of
  ``tick``-second boundaries (always rounding to a *strictly future*
  boundary), so co-temporal work coalesces into discrete ticks.  Events
  additionally carry an *origin key*: the entity (node) whose
  processing created them, plus a per-origin sequence number.  Ordering
  within a tick is ``(priority, origin, origin_seq)`` — independent of
  how the previous tick's work was interleaved across entities, which
  is what lets the batched kernel regroup a tick per node without
  changing any node's observable event order.

When a :class:`~repro.sim.batch.BatchKernel` is installed (see
:meth:`use_batch_kernel`), ``run_until`` delegates to it; harness code
never needs to know which kernel is driving.
"""

from __future__ import annotations

import math
from heapq import heappop
from typing import Callable, Optional

from repro.errors import SimulationError
from repro.sim.clock import Clock
from repro.sim.events import EventQueue, ScheduledEvent
from repro.sim.rand import SimRandom

#: Origin key used for events created outside any entity's processing
#: turn (harness code, fault schedules, campaign probes).  The empty
#: string sorts before every node address, so control events at a tick
#: run before that tick's node work in both kernels.
GLOBAL_ORIGIN = ""


class Simulator:
    """Event loop over a virtual clock."""

    def __init__(self, seed: int = 0, tick: float = 0.0) -> None:
        if tick < 0:
            raise SimulationError(f"tick must be non-negative: {tick}")
        self.clock = Clock()
        self.random = SimRandom(seed)
        self.tick = tick
        self._queue = EventQueue()
        self._running = False
        self._events_processed = 0
        # Batch kernel (repro.sim.batch.BatchKernel) or None.
        self._kernel = None
        # Entity whose event is currently executing; schedules inherit
        # it as their origin key (tick mode only).
        self._origin = GLOBAL_ORIGIN
        self._origin_seqs: dict = {}
        self._timer_ids = 0

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self.clock.now

    @property
    def det_order(self) -> bool:
        """True in tick mode: same-tick ordering is origin-canonical."""
        return self.tick > 0

    @property
    def events_processed(self) -> int:
        """Total events dispatched since construction."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Number of live events still queued."""
        return len(self._queue)

    @property
    def kernel(self):
        """The installed batch kernel, or None (legacy loop)."""
        return self._kernel

    def use_batch_kernel(self, kernel) -> None:
        """Route ``run_until`` through ``kernel`` from now on."""
        if self.tick <= 0:
            raise SimulationError("the batch kernel requires tick > 0")
        self._kernel = kernel

    # ------------------------------------------------------------------
    # Scheduling

    def _quantize(self, when: float) -> float:
        """Snap ``when`` onto the tick grid (strictly after ``now``).

        An event landing on the current instant is deferred one full
        tick: both kernels apply the same rule, so no event is ever
        added to a tick already being processed.
        """
        tick = self.tick
        # Robust grid snap: a value already (numerically) on the grid
        # stays, anything else rounds up.
        k = math.ceil(when / tick - 1e-9)
        when = k * tick
        now = self.clock._now
        if when <= now:
            when = (math.floor(now / tick + 1e-9) + 1) * tick
        return when

    def _push(
        self,
        when: float,
        callback: Callable[[], None],
        priority: int,
        group: Optional[str],
    ) -> ScheduledEvent:
        if self.tick > 0:
            when = self._quantize(when)
            okey = self._origin
            seqs = self._origin_seqs
            oseq = seqs.get(okey, 0)
            seqs[okey] = oseq + 1
            return self._queue.push(
                when, callback, priority, okey=okey, oseq=oseq, group=group
            )
        return self._queue.push(when, callback, priority, GLOBAL_ORIGIN, 0, group)

    def schedule(
        self,
        delay: float,
        callback: Callable[[], None],
        priority: int = 0,
        group: Optional[str] = None,
    ) -> ScheduledEvent:
        """Run ``callback`` after ``delay`` seconds of virtual time.

        ``group`` names the entity that will execute the event (a node
        address); the batch kernel gathers each tick's events per group
        and the legacy loop ignores it.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past: delay={delay}")
        return self._push(self.clock.now + delay, callback, priority, group)

    def schedule_at(
        self,
        when: float,
        callback: Callable[[], None],
        priority: int = 0,
        group: Optional[str] = None,
    ) -> ScheduledEvent:
        """Run ``callback`` at absolute virtual time ``when``."""
        if when < self.clock._now:
            raise SimulationError(
                f"cannot schedule in the past: {when} < {self.clock.now}"
            )
        return self._push(when, callback, priority, group)

    def every(
        self,
        period: float,
        callback: Callable[[], None],
        start_delay: Optional[float] = None,
        jitter: float = 0.0,
        group: Optional[str] = None,
    ) -> "PeriodicTimer":
        """Install a repeating timer; returns a handle with ``.cancel()``.

        ``start_delay`` defaults to one full period.  ``jitter`` adds a
        uniform random offset in ``[0, jitter)`` to each firing, drawn
        from a per-timer random stream named after the timer's creation
        index (deterministic under the master seed and independent of
        how other timers interleave).
        """
        if period <= 0:
            raise SimulationError(f"timer period must be positive: {period}")
        self._timer_ids += 1
        timer = PeriodicTimer(
            self, period, callback, jitter, f"timers.{self._timer_ids}", group
        )
        first = period if start_delay is None else start_delay
        timer._arm(first)
        return timer

    # ------------------------------------------------------------------
    # Execution

    def run_until(self, when: float) -> None:
        """Process all events with time <= ``when``; leave clock at ``when``."""
        if when < self.clock.now:
            raise SimulationError(
                f"cannot run backwards: {when} < {self.clock.now}"
            )
        if self._running:
            raise SimulationError("run_until called re-entrantly")
        if self._kernel is not None:
            self._running = True
            try:
                self._kernel.run_until(when)
            finally:
                self._running = False
            return
        self._running = True
        # The loop works the queue's heap itself, so an event costs its
        # callback's frame and no queue or clock call.  Entries are
        # (time, priority, okey, oseq, seq, event); the heap never
        # yields a time before the clock because nothing can be
        # scheduled in the past.
        heap = self._queue._heap
        clock = self.clock
        try:
            while heap:
                entry = heap[0]
                if entry[0] > when:
                    break
                heappop(heap)
                event = entry[5]
                if event.cancelled:
                    continue
                clock._now = entry[0]
                self._events_processed += 1
                group = event.group
                self._origin = group if group is not None else GLOBAL_ORIGIN
                event.callback()
            clock.advance_to(when)
        finally:
            self._origin = GLOBAL_ORIGIN
            self._running = False

    def run_for(self, duration: float) -> None:
        """Process events for ``duration`` seconds of virtual time."""
        self.run_until(self.clock.now + duration)

    # Internal: the batch kernel borrows these.

    def _drain_tick(self, time: float):
        self.clock.advance_to(time)
        return self._queue.drain_at(time)

    def _peek_time(self) -> Optional[float]:
        return self._queue.peek_time()

    def _count_event(self, n: int = 1) -> None:
        self._events_processed += n

    def _set_origin(self, okey: str) -> None:
        self._origin = okey


class PeriodicTimer:
    """Handle for a repeating timer created by :meth:`Simulator.every`."""

    def __init__(
        self,
        sim: Simulator,
        period: float,
        callback: Callable[[], None],
        jitter: float,
        stream: str,
        group: Optional[str] = None,
    ) -> None:
        self._sim = sim
        self._period = period
        self._callback = callback
        self._jitter = jitter
        self._stream = stream
        self._group = group
        self._cancelled = False
        self._pending: Optional[ScheduledEvent] = None

    def _arm(self, delay: float) -> None:
        if self._jitter > 0:
            delay += self._sim.random.stream(self._stream).uniform(0, self._jitter)
        self._pending = self._sim.schedule(delay, self._fire, group=self._group)

    def _fire(self) -> None:
        if self._cancelled:
            return
        # Re-arm first so the callback may cancel the timer.
        if self._jitter > 0:
            self._arm(self._period)
        else:
            sim = self._sim
            self._pending = sim._push(
                sim.clock.now + self._period, self._fire, 0, self._group
            )
        self._callback()

    def cancel(self) -> None:
        """Stop the timer; any pending firing is dropped."""
        self._cancelled = True
        if self._pending is not None:
            self._pending.cancel()
            self._pending = None
