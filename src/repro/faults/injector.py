"""Crash, partition, loss, reordering, and duplication injection over a
running system.

Every injection is recorded in ``log`` as ``(virtual_time, kind, args)``
— the ground-truth fault timeline campaign verdicts and forensic tests
compare monitor alarms against.  The string ``kind`` names double as
the vocabulary of the :class:`repro.faults.schedule.FaultSchedule` DSL,
dispatched through :meth:`apply`.
"""

from __future__ import annotations

import inspect
from typing import List, Tuple

from repro.core.system import System
from repro.errors import ReproError
from repro.faults.corruption import corrupt_best_succ, corrupt_pred
from repro.net.marshal import payload_for, wire_length
from repro.runtime.tuples import Tuple as RTuple

#: Synthetic source address storm traffic is sent from.  It is never
#: attached to the network, which is fine: reliable-mode acks and BUSY
#: nacks act directly on the sender channel object, not on a receiver.
STORM_SOURCE = "storm!injector"

#: Relation name of storm payloads.  Unknown to every priority map, so
#: admission control classes it DATA — a storm models an application
#: traffic spike, the load the monitoring plane must yield to.
STORM_RELATION = "stormPayload"


class FaultInjector:
    """Scripted fault injection with a record of everything injected."""

    def __init__(self, system: System) -> None:
        self._system = system
        self.log: List[Tuple[float, str, tuple]] = []
        # Monotone wire-mid counter shared by all storms from this
        # injector, so overlapping storms never reuse a message id.
        self._storm_seq = 0

    @property
    def system(self) -> System:
        """The system faults are injected into (read-only)."""
        return self._system

    def _record(self, kind: str, args: tuple) -> None:
        self.log.append((self._system.now, kind, args))
        tel = self._system.telemetry
        if tel.enabled:
            tel.event("fault", kind=kind, args=[str(a) for a in args])

    # ------------------------------------------------------------------

    def crash(self, address: str) -> None:
        """Fail-stop a node now (stamps the durable image's crash time
        when the node is recovery-protected)."""
        recovery = getattr(self._system, "recovery", None)
        if recovery is not None:
            recovery.crash(address)
        else:
            self._system.crash(address)
        self._record("crash", (address,))

    def restart(self, address: str) -> None:
        """Recover a crashed node from its durable checkpoint+WAL image.

        Requires a :class:`~repro.recovery.manager.RecoveryManager` on
        the system.  Skipped (not recorded) if the node is already
        running — a schedule's restart can race a manual one.
        """
        recovery = getattr(self._system, "recovery", None)
        if recovery is None:
            raise ReproError(
                "restart fault requires a RecoveryManager on the system "
                "(see repro.recovery)"
            )
        if not self._system.node(address).stopped:
            return
        recovery.restart(address)
        self._record("restart", (address,))

    def crash_restart(self, address: str, down_for: float) -> None:
        """Crash now; restart from durable state after ``down_for``
        seconds of virtual downtime."""
        self.crash(address)
        self._system.sim.schedule(
            down_for, lambda: self.restart(address)
        )

    def crash_at(self, when: float, address: str) -> None:
        """Schedule a fail-stop at absolute virtual time ``when``."""
        self._system.sim.schedule_at(
            when, lambda: self.crash(address)
        )

    def partition(self, a: str, b: str) -> None:
        """Cut the link between two nodes (both directions)."""
        self._system.network.partition(a, b)
        self._record("partition", (a, b))

    def heal(self, a: str, b: str) -> None:
        self._system.network.heal(a, b)
        self._record("heal", (a, b))

    def isolate(self, address: str) -> None:
        """Partition one node from every other node (it stays alive)."""
        for other in self._system.network.addresses:
            if other != address:
                self._system.network.partition(address, other)
        self._record("isolate", (address,))

    def rejoin(self, address: str) -> None:
        """Undo :meth:`isolate`."""
        for other in self._system.network.addresses:
            if other != address:
                self._system.network.heal(address, other)
        self._record("rejoin", (address,))

    def take_down(self, address: str) -> None:
        """Silently drop the node's traffic (it keeps running blind)."""
        self._system.network.take_down(address)
        self._record("take_down", (address,))

    def bring_up(self, address: str) -> None:
        """Undo :meth:`take_down`."""
        self._system.network.bring_up(address)
        self._record("bring_up", (address,))

    def set_loss_rate(self, rate: float) -> None:
        self._system.network.set_loss_rate(rate)
        self._record("loss", (rate,))

    def set_link_loss(self, src: str, dst: str, rate: float) -> None:
        """Loss rate for one directed link (0 restores the global rate)."""
        self._system.network.set_link_loss(src, dst, rate)
        self._record("link_loss", (src, dst, rate))

    def set_reorder_rate(self, rate: float) -> None:
        self._system.network.set_reorder_rate(rate)
        self._record("reorder", (rate,))

    def set_duplicate_rate(self, rate: float) -> None:
        self._system.network.set_duplicate_rate(rate)
        self._record("duplicate", (rate,))

    def traffic_storm(
        self, address: str, rate: float, duration: float
    ) -> None:
        """Flood ``address`` with synthetic DATA-class tuples.

        Sends ``rate`` messages per virtual second for ``duration``
        seconds, on a deterministic tick chain (no randomness — the
        storm is byte-identical under a given schedule).  Sends land on
        the tick grid, so each tick sends the messages its width pays
        for at ``rate`` and banks the fraction: the storm keeps its rate
        and ends ``duration`` after it starts, however far ``1/rate``
        is below one tick.  The payloads are ``stormPayload`` tuples,
        which no priority map knows, so admission control treats them
        as application traffic: the overload they create must shed
        MONITOR/TRACE work first.
        """
        if rate <= 0.0:
            raise ReproError(f"storm rate must be > 0: {rate}")
        if duration <= 0.0:
            raise ReproError(f"storm duration must be > 0: {duration}")
        self._record("traffic_storm", (address, rate, duration))
        system = self._system
        per_tick = rate * system.sim.tick
        # [messages left to send, fraction of a message banked]
        state = [max(1, int(rate * duration)), 0.0]

        def tick() -> None:
            credit = state[1] + per_tick
            count = min(state[0], int(credit + 1e-9))
            state[1] = credit - count
            state[0] -= count
            for _ in range(count):
                self._storm_seq += 1
                mid = self._storm_seq
                tup = payload_for(RTuple(STORM_RELATION, (address, mid)))
                size = wire_length(tup, STORM_SOURCE, None, mid)
                system.network.send(
                    STORM_SOURCE, address, tup, size, mid=mid
                )
            if state[0] > 0:
                system.sim.schedule(0.0, tick)

        system.sim.schedule(0.0, tick)

    def slow_node(self, address: str, factor: float) -> None:
        """Scale a node's per-message service time by ``factor``.

        Models a node that got slow (GC pauses, CPU contention) without
        stopping: its mailbox drains ``factor``× slower, so the same
        arrival rate saturates it sooner.  ``factor=1.0`` restores full
        speed (the schedule DSL's inverse for a windowed slow-down).
        Requires overload protection on the node — without a mailbox
        there is no service rate to slow.
        """
        if factor <= 0.0:
            raise ReproError(f"slow_node factor must be > 0: {factor}")
        node = self._system.node(address)
        if node.overload is None:
            raise ReproError(
                f"slow_node requires overload protection on {address!r} "
                "(System overload=OverloadConfig(...))"
            )
        node.overload.slow_factor = factor
        self._record("slow_node", (address, factor))

    def corrupt(self, address: str, relation: str, wrong_addr: str) -> None:
        """Corrupt one of a node's ring pointers to ``wrong_addr``.

        ``relation`` is ``"pred"`` or ``"bestSucc"`` (``"succ"`` is an
        alias).  Routing through the injector — rather than calling the
        :mod:`repro.faults.corruption` helpers directly — records the
        corruption in the fault log, so campaign fingerprints and
        schedule validation see it like any other fault.
        """
        node = self._system.node(address)
        if relation == "pred":
            corrupt_pred(node, wrong_addr)
        elif relation in ("bestSucc", "succ"):
            corrupt_best_succ(node, wrong_addr)
        else:
            raise ReproError(
                f"corrupt: unknown relation {relation!r} "
                "(expected 'pred' or 'bestSucc')"
            )
        self._record("corrupt", (address, relation, wrong_addr))

    # ------------------------------------------------------------------
    # Schedule dispatch

    #: kind → bound-method name; the vocabulary of the FaultSchedule DSL.
    KINDS = {
        "crash": "crash",
        "restart": "restart",
        "crash_restart": "crash_restart",
        "partition": "partition",
        "heal": "heal",
        "isolate": "isolate",
        "rejoin": "rejoin",
        "take_down": "take_down",
        "bring_up": "bring_up",
        "loss": "set_loss_rate",
        "link_loss": "set_link_loss",
        "reorder": "set_reorder_rate",
        "duplicate": "set_duplicate_rate",
        "traffic_storm": "traffic_storm",
        "slow_node": "slow_node",
        "corrupt": "corrupt",
    }

    @classmethod
    def validate_call(cls, kind: str, args: tuple) -> None:
        """Check a (kind, args) pair against the injector's signature.

        Schedules call this at *build* time so a typo'd kind or a wrong
        argument count fails when the schedule is written, not hours of
        virtual time into a campaign run.
        """
        method_name = cls.KINDS.get(kind)
        if method_name is None:
            known = ", ".join(sorted(cls.KINDS))
            raise ReproError(
                f"unknown fault kind: {kind!r} (known: {known})"
            )
        params = [
            p
            for p in inspect.signature(
                getattr(cls, method_name)
            ).parameters.values()
            if p.name != "self"
        ]
        required = sum(1 for p in params if p.default is inspect.Parameter.empty)
        if not (required <= len(args) <= len(params)):
            want = (
                str(required)
                if required == len(params)
                else f"{required}..{len(params)}"
            )
            raise ReproError(
                f"fault {kind!r} takes {want} argument(s), got "
                f"{len(args)}: {args!r}"
            )

    def apply(self, kind: str, *args) -> None:
        """Inject a fault by its schedule-entry name."""
        method = self.KINDS.get(kind)
        if method is None:
            raise ReproError(f"unknown fault kind: {kind!r}")
        getattr(self, method)(*args)

    def apply_at(self, when: float, kind: str, *args) -> None:
        """Schedule :meth:`apply` at absolute virtual time ``when``."""
        if kind not in self.KINDS:
            raise ReproError(f"unknown fault kind: {kind!r}")
        self._system.sim.schedule_at(
            when, lambda: self.apply(kind, *args)
        )
