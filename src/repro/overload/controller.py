"""The per-node overload controller: admission, shedding, accounting.

One :class:`OverloadController` hangs off a :class:`~repro.runtime.node.P2Node`
(``node.overload``; ``None`` keeps every hot path untouched).  It owns

- the **priority map** learned at program-install time
  (:mod:`repro.overload.policy`);
- the **inbound mailbox** — a :class:`~repro.overload.queues.BoundedQueue`
  of decoded-but-unprocessed network payloads, drained at the node's
  service rate (``service_time`` per message, scaled by the
  ``slow_node`` fault's factor), which is what makes queue buildup a
  real, measurable thing inside a discrete-event simulator;
- the **strand-queue watermark state** over the node's pending-strand
  deque;
- all **shed/defer accounting** by class and reason, plus the bounded
  shed log the storm campaign's priority invariant is checked against.

Admission policy (the invariant by construction):

========== =================== ============================
state       TRACE / MONITOR     DATA
========== =================== ============================
normal      admit               admit
shedding    shed (or BUSY-      admit
            defer if remote)
full        shed / defer        defer (BUSY) if remote,
                                shed (``*_full``) otherwise
========== =================== ============================

DATA is only ever shed when the queue is *hard full* — a state in
which both lower classes are already being refused (full implies past
the high watermark, where shedding engages).  ``invariant_ok()``
checks exactly that, pointwise: every recorded DATA shed must have
happened while ``shed_active`` was true, i.e. while MONITOR/TRACE
admission was closed.  A DATA shed at a moment when lower-priority
work was still being admitted is a violation, and the storm campaign
asserts none occur, per seed.

With ``shedding=False`` the controller runs observe-only: it classes
and counts everything and tracks depth peaks, but admits all traffic —
the control arm that demonstrates unbounded queue growth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.overload.policy import (
    CLASS_DATA,
    CLASSES,
    PriorityMap,
)
from repro.overload.queues import BoundedQueue, QueueState

#: Shed-reason keys (every shed/defer increments exactly one).
SHED_MAILBOX = "mailbox"          # low-priority refused at the mailbox
SHED_MAILBOX_FULL = "mailbox_full"   # hard-full mailbox (local/UDP)
SHED_STRAND = "strand_queue"      # low-priority strand firing skipped
SHED_STRAND_FULL = "strand_queue_full"
SHED_PERIODIC = "periodic_skip"   # periodic monitor fire suppressed
SHED_STOPPED = "node_stopped"     # admitted but node crashed first
DEFER_BUSY = "busy"               # reliable-mode receiver pushback

#: Shed-log ring bound: enough for a whole storm window, small enough
#: that a pathological run cannot turn the log itself into the leak.
SHED_LOG_CAPACITY = 4096


@dataclass
class OverloadConfig:
    """Capacities for one node's overload protection.

    ``None`` capacities mean unbounded (observe-only for that queue).
    Both queues shed from 0.8 and admit again from 0.5 of their capacity
    (:mod:`repro.overload.queues`).
    ``service_time`` is the simulated per-message processing time that
    turns the mailbox into a real queue: at 0 every message is
    processed inline on arrival (today's behaviour, depth never
    exceeds the burst in flight); at ``s > 0`` the node drains one
    message every ``s * slow_factor`` seconds and a sustained arrival
    rate above ``1/s`` grows the mailbox into its watermarks.
    """

    mailbox_capacity: Optional[int] = 128
    strand_queue_capacity: Optional[int] = 512
    watch_capacity: int = 1000
    service_time: float = 0.0
    shedding: bool = True


@dataclass
class ClassCounts:
    """Offered/admitted/shed/deferred tallies for one priority class."""

    offered: int = 0
    admitted: int = 0
    shed: int = 0
    deferred: int = 0
    shed_reasons: Dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "offered": self.offered,
            "admitted": self.admitted,
            "shed": self.shed,
            "deferred": self.deferred,
            "shed_reasons": {
                reason: self.shed_reasons[reason]
                for reason in sorted(self.shed_reasons)
            },
        }


class OverloadController:
    """Admission control + load shedding for one node (see module doc)."""

    def __init__(
        self,
        config: Optional[OverloadConfig] = None,
        clock=None,
        telemetry=None,
        node_label: str = "",
    ) -> None:
        self.config = config if config is not None else OverloadConfig()
        self._clock = clock if clock is not None else (lambda: 0.0)
        self.telemetry = telemetry
        self.node_label = node_label
        self.priorities = PriorityMap()
        self.mailbox = BoundedQueue(self.config.mailbox_capacity)
        self.strand_state = QueueState(self.config.strand_queue_capacity)
        self.slow_factor = 1.0
        self.counts: Dict[str, ClassCounts] = {
            cls: ClassCounts() for cls in CLASSES
        }
        #: Bounded (time, class, reason, relation) shed records; the
        #: storm campaign's priority invariant reads these.
        self.shed_log: List[Tuple[float, str, str, str]] = []
        self.shed_log_dropped = 0
        #: Virtual time of the first shed per class (diagnostics).
        self.first_shed: Dict[str, float] = {}
        #: ``(time, reason, relation)`` of every DATA shed that happened
        #: while lower-priority admission was still open — the priority
        #: invariant's violation record (must stay empty).
        self.invariant_violations: List[Tuple[float, str, str]] = []

    # ------------------------------------------------------------------
    # Classification

    def classify(self, relation: str) -> str:
        return self.priorities.classify(relation)

    def learn_program(self, compiled: Any, role: str) -> None:
        """Derive priority-map entries from one installed program.

        Every relation the program materializes plus every rule-head
        relation it derives is claimed for the program's role; the
        highest-priority claim wins (see :class:`PriorityMap`).
        """
        relations = set(compiled.table_names)
        for strand in compiled.strands:
            relations.add(strand.project.head.name)
        self.priorities.learn(sorted(relations), role)

    # ------------------------------------------------------------------
    # State

    @property
    def shed_active(self) -> bool:
        """True while either watermark state machine is shedding (and
        shedding is enabled at all)."""
        if not self.config.shedding:
            return False
        return self.mailbox.shedding or self.strand_state.shedding

    @property
    def service_delay(self) -> float:
        return self.config.service_time * self.slow_factor

    # ------------------------------------------------------------------
    # Admission decisions

    def admit_mailbox(self, relation: str) -> bool:
        """Local/UDP mailbox admission for one inbound tuple.

        Counts the offer; a refusal is a *shed* (UDP has no pushback)
        with its reason recorded.  The caller only pushes into the
        mailbox on True.
        """
        cls = self.classify(relation)
        counts = self.counts[cls]
        counts.offered += 1
        if not self.config.shedding:
            counts.admitted += 1
            return True
        if self.mailbox.full:
            self._shed(
                cls,
                SHED_MAILBOX_FULL if cls == CLASS_DATA else SHED_MAILBOX,
                relation,
            )
            return False
        if self.mailbox.shedding and cls != CLASS_DATA:
            self._shed(cls, SHED_MAILBOX, relation)
            return False
        counts.admitted += 1
        return True

    def admit_remote(self, relation: str) -> bool:
        """Reliable-transport admission gate (False = BUSY nack).

        Refusals here are *deferrals*, not sheds: the sender keeps the
        tuple, backs off, and retries — DATA is therefore never lost to
        overload on the reliable path, only delayed (or eventually
        surfaced to the sender as retry exhaustion).
        """
        if not self.config.shedding:
            return True
        cls = self.classify(relation)
        if self.mailbox.full or (
            self.mailbox.shedding and cls != CLASS_DATA
        ):
            counts = self.counts[cls]
            counts.offered += 1
            counts.deferred += 1
            if self.telemetry is not None and self.telemetry.enabled:
                self.telemetry.event(
                    "overload.defer",
                    node=self.node_label,
                    cls=cls,
                    reason=DEFER_BUSY,
                    relation=relation,
                )
            return False
        return True

    def count_arrival(self, relation: str) -> None:
        """Count one preadmitted arrival.

        The reliable-transport gate (:meth:`admit_remote`) counts
        nothing when it accepts — the offer is tallied here, when the
        frame actually reaches :meth:`~repro.runtime.node.P2Node.receive`,
        so BUSY-then-retry-then-accept sequences come out as N offers,
        N-1 deferrals, one admission.
        """
        counts = self.counts[self.classify(relation)]
        counts.offered += 1
        counts.admitted += 1

    def shed_after_admit(
        self, relation: str, reason: str = SHED_MAILBOX_FULL
    ) -> None:
        """Retract one admission and record a shed instead.

        Covers the two paths where a tuple is dropped *after* passing
        its admission gate: a reordered reliable frame delivered into a
        mailbox that hit hard-full since arrival, and tuples abandoned
        in the mailbox when the node stops.
        """
        cls = self.classify(relation)
        self.counts[cls].admitted -= 1
        self._shed(cls, reason, relation)

    def admit_strand(self, cls: str, depth: int, relation: str = "") -> bool:
        """Pending-strand-queue admission for one (strand, tuple) firing."""
        state = self.strand_state
        was = state.shedding
        state.observe(depth)
        if state.shedding != was:
            self._state_event("strand_queue", state.shedding)
        counts = self.counts[cls]
        counts.offered += 1
        if not self.config.shedding:
            counts.admitted += 1
            return True
        if state.full(depth):
            self._shed(
                cls,
                SHED_STRAND_FULL if cls == CLASS_DATA else SHED_STRAND,
                relation,
            )
            return False
        if state.shedding and cls != CLASS_DATA:
            self._shed(cls, SHED_STRAND, relation)
            return False
        counts.admitted += 1
        return True

    def admit_periodic(self, cls: str, relation: str = "periodic") -> bool:
        """Should a periodic strand fire right now?  Low-priority
        periodic work (monitor probes, trace sweeps) skips fires while
        shedding is active."""
        if cls == CLASS_DATA or not self.shed_active:
            return True
        counts = self.counts[cls]
        counts.offered += 1
        self._shed(cls, SHED_PERIODIC, relation)
        return False

    # ------------------------------------------------------------------
    # Mailbox plumbing (the node pushes/pops; state events ride along)

    def mailbox_push(self, item: Any) -> bool:
        was = self.mailbox.shedding
        pushed = self.mailbox.push(item)
        if self.mailbox.shedding != was:
            self._state_event("mailbox", self.mailbox.shedding)
        return pushed

    def mailbox_pop(self) -> Any:
        was = self.mailbox.shedding
        item = self.mailbox.pop()
        if self.mailbox.shedding != was:
            self._state_event("mailbox", self.mailbox.shedding)
        return item

    def note_strand_depth(self, depth: int) -> None:
        """Feed a drain-side depth observation (pump pops)."""
        state = self.strand_state
        was = state.shedding
        state.observe(depth)
        if state.shedding != was:
            self._state_event("strand_queue", state.shedding)

    # ------------------------------------------------------------------
    # Accounting

    def _shed(self, cls: str, reason: str, relation: str) -> None:
        counts = self.counts[cls]
        counts.shed += 1
        counts.shed_reasons[reason] = counts.shed_reasons.get(reason, 0) + 1
        now = self._clock()
        if cls not in self.first_shed and reason != SHED_STOPPED:
            # Crash-time mailbox abandonment is not an overload
            # decision; keep it out of the priority-invariant record.
            self.first_shed[cls] = now
        if (
            cls == CLASS_DATA
            and reason != SHED_STOPPED
            and not self.shed_active
        ):
            self.invariant_violations.append((now, reason, relation))
        if len(self.shed_log) < SHED_LOG_CAPACITY:
            self.shed_log.append((now, cls, reason, relation))
        else:
            self.shed_log_dropped += 1
        if self.telemetry is not None and self.telemetry.enabled:
            self.telemetry.event(
                "overload.shed",
                node=self.node_label,
                cls=cls,
                reason=reason,
                relation=relation,
            )

    def _state_event(self, queue: str, shedding: bool) -> None:
        if self.telemetry is not None and self.telemetry.enabled:
            self.telemetry.event(
                "overload.state",
                node=self.node_label,
                queue=queue,
                state="shedding" if shedding else "normal",
            )

    # ------------------------------------------------------------------
    # Read surface (metrics callbacks, dashboard, verdicts)

    def invariant_ok(self) -> bool:
        """The priority invariant, pointwise: every DATA shed happened
        while ``shed_active`` was true — i.e. while MONITOR/TRACE
        admission was already closed.  (No DATA sheds at all passes
        trivially.)  A recorded violation means the controller dropped
        protected application traffic at a moment when it was still
        admitting expendable monitoring traffic."""
        return not self.invariant_violations

    def totals(self) -> Dict[str, Dict[str, int]]:
        """Per-class counters, stably ordered for fingerprints."""
        return {cls: self.counts[cls].as_dict() for cls in CLASSES}

    def snapshot(self) -> dict:
        """Everything a saturation panel or verdict wants, JSON-ready."""
        return {
            "classes": self.totals(),
            "mailbox_depth": len(self.mailbox),
            "mailbox_peak": self.mailbox.depth_peak,
            "mailbox_shedding": self.mailbox.shedding,
            "strand_peak": self.strand_state.depth_peak,
            "strand_shedding": self.strand_state.shedding,
            "transitions": (
                self.mailbox.state.transitions
                + self.strand_state.transitions
            ),
            "slow_factor": self.slow_factor,
            "invariant_ok": self.invariant_ok(),
        }

    def __repr__(self) -> str:
        shed = sum(c.shed for c in self.counts.values())
        return (
            f"<OverloadController {self.node_label} "
            f"mailbox={len(self.mailbox)} shed={shed}>"
        )
