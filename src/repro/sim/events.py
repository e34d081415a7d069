"""Scheduled events and their order in the simulator's queue.

Events are ordered by ``(time, priority, origin key, origin seq)``.
Priority lets the network deliver messages before
timers that fire at the same instant (or vice versa) in a controlled
way; the default priority of 0 is fine for nearly all uses.

The *origin* fields are the tick loop's determinism contract
(docs/SCALE.md).  The simulator stamps every event with the entity
that created it (``okey`` — a node address, or ``""`` for
harness/control code) and a per-origin counter (``oseq``).  Because
the loop preserves each entity's own processing order however it
groups a tick, the pair ``(okey, oseq)`` is the same as under the
one-event-at-a-time reference loop the tests keep, which makes
same-tick ordering independent of how the previous tick's work was
interleaved globally.  Every push takes the
next ``oseq`` of its origin, so the pair is unique: the order is total,
and two events one entity schedules for the same instant fire in
scheduling order.

The queue is a plain heap on the simulator (``Simulator._heap``) of
key tuples ``(time, priority, okey, oseq, event)`` — C-speed
comparisons that never reach the event, because ``(okey, oseq)`` is
unique.
:class:`ScheduledEvent` is the cancellation handle riding along in the
last slot.  ``Simulator._push`` pushes and ``Simulator._run_ticks``
pops the heap directly: those are the hottest lines in a run.
"""

from __future__ import annotations

from typing import Callable, Optional


class ScheduledEvent:
    """A callback scheduled to run at a virtual time.

    Cancellation is lazy: :meth:`cancel` marks the event and the queue
    skips it on pop, so cancelling is O(1).  ``group`` names the entity
    that will *execute* the event (a node address for deliveries and
    node timers); the loop gathers a tick's events per group.
    """

    __slots__ = (
        "time", "priority", "okey", "oseq", "callback", "group",
        "cancelled",
    )

    def __init__(
        self,
        time: float,
        priority: int,
        callback: Callable[[], None],
        okey: str = "",
        oseq: int = 0,
        group: Optional[str] = None,
    ) -> None:
        self.time = time
        self.priority = priority
        self.okey = okey
        self.oseq = oseq
        self.callback = callback
        self.group = group
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent this event from firing (no-op if already fired)."""
        self.cancelled = True

    def sort_key(self):
        """The queue's total order key (for tests and introspection)."""
        return (self.time, self.priority, self.okey, self.oseq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ScheduledEvent t={self.time} prio={self.priority} "
            f"origin={self.okey}:{self.oseq} "
            f"group={self.group!r}{' cancelled' if self.cancelled else ''}>"
        )
