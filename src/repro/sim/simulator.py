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

Time runs on a grid of ``tick``-second boundaries (docs/SCALE.md):
scheduling snaps onto the grid, always to a *strictly future* boundary,
so co-temporal work coalesces into discrete ticks.  Every event also
carries an *origin key*: the entity (node) whose processing created
it, plus a per-origin sequence number.  Ordering within a tick is
``(priority, origin, origin_seq)`` — independent of how the previous
tick's work was interleaved across entities, which is what lets the
loop regroup a tick per node without changing any node's observable
event order.

There is one loop, and it runs a *tick* at a time:

1. advance the clock to the earliest pending event time ``t`` (every
   event sits on the tick grid);
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

A tick whose events share one group — a single node's timers, or one
event alone — is already in that order, so it runs straight off the
heap.  The loop only *schedules*: what a node does with an event —
receive, pump, fire — is the node's own code.  Draining a tick in one
pass, and the fabric's one event per ``(tick, destination)`` instead
of one per message (:meth:`repro.net.network.Network._post`), are what
make a thousand-node run cheap (docs/SCALE.md).

Equivalence contract (docs/SCALE.md): within a tick, nodes interact
only through events scheduled for *later* ticks, and all per-message
randomness is drawn from per-entity streams, so regrouping a tick per
node cannot change any node's observable history.  The tests keep the
one-event-at-a-time loop as a reference (``tests/runtime/
reference_loop.py``, which replaces :meth:`_run_ticks` on an instance)
and demand byte-identical runs of every bundled program from both.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, Dict, List, Optional

from repro.errors import SimulationError
from repro.sim.clock import Clock
from repro.sim.events import ScheduledEvent
from repro.sim.rand import SimRandom

#: Origin key used for events created outside any entity's processing
#: turn (harness code, fault schedules, campaign probes).  The empty
#: string sorts before every node address, so control events at a tick
#: run before that tick's node work.
GLOBAL_ORIGIN = ""

#: Default tick width (seconds).  Matches the default one-way network
#: latency, so a message sent during tick ``t`` is delivered exactly at
#: tick ``t + 1`` and quantization does not stretch the fabric.
DEFAULT_TICK = 0.01


class Simulator:
    """Event loop over a virtual clock on a ``tick``-second grid."""

    def __init__(self, seed: int = 0, tick: float = DEFAULT_TICK) -> None:
        if not tick > 0:
            raise SimulationError(f"tick must be positive: {tick}")
        self.clock = Clock()
        self.random = SimRandom(seed)
        self.tick = tick
        # The event queue: a heap of (time, priority, okey, oseq, event)
        # entries (repro.sim.events).
        self._heap: list = []
        self._running = False
        self._events_processed = 0
        #: Ticks executed (one per distinct event time processed).
        self.ticks = 0
        #: Largest single-tick event batch seen (e2e's ``sim.max_tick_events``).
        self.max_tick_events = 0
        #: Tick-barrier hooks, called with the tick time after all of a
        #: tick's events have run.  The forensic store registers here so
        #: its segment cuts align with tick boundaries instead of
        #: landing mid-tick between two events of the same instant.
        self.on_tick: List[Callable[[float], None]] = []
        # Entity whose event is currently executing; schedules inherit
        # it as their origin key.
        self._origin = GLOBAL_ORIGIN
        self._origin_seqs: dict = {}
        self._timer_ids = 0

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self.clock.now

    @property
    def events_processed(self) -> int:
        """Total events dispatched since construction."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Number of live events still queued."""
        return sum(1 for entry in self._heap if not entry[4].cancelled)

    @property
    def kernel(self) -> "Simulator":
        """This simulator: ``sim.kernel.ticks`` is the older spelling of
        :attr:`ticks` (and ``.max_tick_events``), still read by
        ``benchmarks/e2e``."""
        return self

    # ------------------------------------------------------------------
    # Scheduling

    def _push(
        self,
        when: float,
        callback: Callable[[], None],
        priority: int,
        group: Optional[str],
    ) -> ScheduledEvent:
        # Snap onto the grid: a value already (numerically) on it
        # stays, anything else rounds up — ``ceil(when / tick - 1e-9)``
        # spelled as arithmetic, because this runs on every schedule.
        # An event landing on the current instant is deferred one full
        # tick, so no event is ever added to a tick being processed.
        tick = self.tick
        when = -((1e-9 - when / tick) // 1) * tick
        now = self.clock._now
        if when <= now:
            when = ((now / tick + 1e-9) // 1 + 1) * tick
        okey = self._origin
        seqs = self._origin_seqs
        try:
            oseq = seqs[okey]
        except KeyError:
            oseq = 0
        seqs[okey] = oseq + 1
        event = ScheduledEvent(when, priority, callback, okey, oseq, group)
        heappush(self._heap, (when, priority, okey, oseq, event))
        return event

    def schedule(
        self,
        delay: float,
        callback: Callable[[], None],
        priority: int = 0,
        group: Optional[str] = None,
    ) -> ScheduledEvent:
        """Run ``callback`` after ``delay`` seconds of virtual time.

        ``group`` names the entity that will execute the event (a node
        address); the loop gathers each tick's events per group.
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
        self._running = True
        try:
            self._run_ticks(when)
            self.clock.advance_to(when)
        finally:
            self._origin = GLOBAL_ORIGIN
            self._running = False

    def _run_ticks(self, when: float) -> None:
        """Run every tick at or before ``when`` (see the module doc).

        It works the queue's heap itself, so an event costs its
        callback's frame and no queue or clock call; the tick and event
        counters are kept in locals and stored once.  Entries are
        (time, priority, okey, oseq, event); the heap never yields a
        time before the clock because nothing can be scheduled in the
        past.
        """
        heap = self._heap
        clock = self.clock
        on_tick = self.on_tick
        ticks = processed = 0
        most = self.max_tick_events
        try:
            while heap:
                t = heap[0][0]
                if t > when:
                    break
                events = []
                group = None
                mixed = False
                while True:  # the heap holds at least one entry at t
                    event = heappop(heap)[4]
                    if not event.cancelled:
                        events += (event,)  # no call: cheaper than append
                        g = event.group
                        if g != group and g is not None:
                            # A second group makes the tick mixed for good.
                            mixed = group is not None
                            group = g
                    if not heap or heap[0][0] != t:
                        break
                if not events:
                    continue
                clock._now = t
                ticks += 1
                n = len(events)
                if n > most:
                    most = n
                processed += n
                if mixed:
                    self._run_grouped(events)
                else:
                    # One group (with or without control events):
                    # canonical order already is the grouped order.
                    for event in events:
                        # An earlier event this tick may have cancelled
                        # a later one (crash cancelling timers).
                        if not event.cancelled:
                            self._origin = event.group or GLOBAL_ORIGIN
                            event.callback()
                if on_tick:
                    for hook in on_tick:
                        hook(t)
        finally:
            self.ticks += ticks
            self.max_tick_events = most
            self._events_processed += processed

    def _run_grouped(self, events: List[ScheduledEvent]) -> None:
        """Run a tick that spans several groups, per group."""
        groups: Dict[str, List[ScheduledEvent]] = {}
        for event in events:
            if event.cancelled:
                continue
            group = event.group
            if group is None:
                # Control code can inject into or kill nodes, so a
                # control event is ordered relative to each node's own
                # stream: everything gathered so far sorts canonically
                # before it and must run first.
                self._flush(groups)
                self._origin = GLOBAL_ORIGIN
                event.callback()
            else:
                bucket = groups.get(group)
                if bucket is None:
                    groups[group] = [event]
                else:
                    bucket.append(event)
        self._flush(groups)

    def _flush(self, groups: Dict[str, List[ScheduledEvent]]) -> None:
        """Run each group's gathered events, in stable address order.

        Node histories are interaction-free within a tick, so group
        order is unobservable; sorting makes it deterministic.
        """
        if not groups:
            return
        for key in sorted(groups):
            self._origin = key
            for event in groups[key]:
                if not event.cancelled:
                    event.callback()
        groups.clear()

    def run_for(self, duration: float) -> None:
        """Process events for ``duration`` seconds of virtual time."""
        self.run_until(self.clock.now + duration)


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
                sim.clock._now + self._period, self._fire, 0, self._group
            )
        self._callback()

    def cancel(self) -> None:
        """Stop the timer; any pending firing is dropped."""
        self._cancelled = True
        if self._pending is not None:
            self._pending.cancel()
            self._pending = None
