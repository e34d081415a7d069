"""A virtual P2 node: program installation, tuple routing, rule firing.

The node owns a table store, compiled strands indexed by trigger
predicate, per-strand periodic timers, and a FIFO work queue.  Every
tuple — application state, network message, event, log entry — moves
through :meth:`_deliver_local`, which makes the introspection story
uniform: the tracer and event subscribers observe everything.

There is one execution path: :meth:`receive` admits and applies one
message, :meth:`_pump` drains the work queue one ``(strand, trigger)``
at a time, and :meth:`RuleStrand.fire` runs it.  The simulator's tick
loop and the fabric's coalesced deliveries (:mod:`repro.sim.simulator`)
only decide *when* those are called — the tests' one-event-at-a-time
reference loop calls the same ones — so tracers, telemetry and
overload control attach to the path every node runs rather than
selecting another one.

Tracing attachment is by composition to keep layering clean: the
introspection package sets ``node.hooks`` (a
:class:`repro.runtime.strand.TraceHooks`) and ``node.registry`` (tuple
memoization); the node calls them when present and works fine without.
"""

from __future__ import annotations

from collections import defaultdict, deque
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Tuple as PyTuple

from repro import codec
from repro.errors import RuntimeStateError
from repro.net.address import Address
from repro.net.marshal import (
    delete_length,
    payload_for,
    wire_length,
    wire_values,
)
from repro.net.network import Message, Network
from repro.overlog.builtins import EvalContext
from repro.overlog.program import Program
from repro.overlog.types import DEFAULT_ID_BITS
from repro.overload.controller import (
    SHED_STOPPED,
    OverloadConfig,
    OverloadController,
)
from repro.runtime.planner import CompiledProgram, Planner
from repro.runtime.store import TableStore
from repro.runtime.strand import DeleteAction, RuleStrand, TraceHooks
from repro.runtime.table import InsertOutcome, Table
from repro.runtime.tuples import Tuple
from repro.runtime.work import WorkModel
from repro.sim.simulator import Simulator

#: Watch-ring capacity when neither the caller nor an overload config
#: specifies one (P2's default watchpoint buffer).
DEFAULT_WATCH_CAPACITY = 1000
#: Seconds between a node's soft-state expiry sweeps.
SWEEP_INTERVAL = 1.0


class P2Node:
    """One participant in the simulated distributed system."""

    def __init__(
        self,
        address: Address,
        sim: Simulator,
        network: Network,
        id_bits: int = DEFAULT_ID_BITS,
        overload: Optional[OverloadConfig] = None,
    ) -> None:
        self.address = address
        #: ``str(address)``: timer group and telemetry label.
        self.label = str(address)
        self.sim = sim
        self.network = network
        self.id_bits = id_bits
        self.rng = sim.random.stream(f"node.{address}")
        #: The virtual time, read in no Python frame (``sim.now`` is two
        #: properties deep): every table access reads it.
        self.now: Callable[[], float] = sim.clock.reader()
        self.store = TableStore(self.now)
        self.work = WorkModel()
        # Rules and the tracer read the micro-clock, so a rule's ruleExec
        # row ends after it starts (§3.2's RuleT).  Its reset points are
        # this node's own turns, which the tick loop runs in the order
        # a one-event-at-a-time loop would.
        self.ctx = EvalContext(self.work_clock, self.rng, id_bits)
        self.planner = Planner(self.store, node_label=address)

        self.programs: List[CompiledProgram] = []
        self.strands: List[RuleStrand] = []
        self._strands_by_trigger: Dict[str, List[RuleStrand]] = defaultdict(list)
        self._observed_tables: Dict[str, Table] = {}
        self._subscribers: Dict[str, List[Callable[[Tuple], None]]] = defaultdict(list)
        #: relation -> ``(table | None, triggered strands, subscribers)``,
        #: resolved at the relation's first delivery (:meth:`_sink`).
        self._sinks: Dict[str, PyTuple] = {}
        self.store.on_create.append(self._drop_sink)
        self._timers: List[Any] = []
        self._periodic_timers: Dict[RuleStrand, Any] = {}
        self._watches: Dict[str, List[PyTuple]] = {}
        self._watch_caps: Dict[str, int] = {}
        #: Oldest-evicted entries per watch ring (satellite accounting
        #: for the obs registry's ``watch_evicted_total``).
        self.watch_evicted: Dict[str, int] = {}
        self._queue: deque = deque()
        self._pumping = False
        self._stopped = False

        # Overload protection (repro.overload): None keeps every hot
        # path exactly as before — no admission checks, no mailbox.
        self.overload: Optional[OverloadController] = None
        self._drain_timer = None
        # When the pending drain was armed, and the fraction of a
        # message's service time banked by earlier drains.
        self._drain_armed = 0.0
        self._drain_credit = 0.0
        if overload is not None:
            self.overload = OverloadController(
                overload,
                clock=self.now,
                node_label=self.label,
            )

        # Introspection attachment points (set by repro.introspect).
        self.hooks: Optional[TraceHooks] = None
        self.registry = None  # repro.introspect.tuple_table.TupleRegistry
        # Telemetry attachment point (set by repro.core.system when
        # observability is enabled; strands then fire through
        # RuleStrand.fire_timed, and None keeps every hot path as is).
        self.obs = None  # repro.obs.telemetry.Telemetry
        # Called with every locally delivered tuple (event logging).
        self.on_deliver: List[Callable[[Tuple], None]] = []
        # Called with every installed Program (crash-recovery durability:
        # the recovery recorder journals installs so a restarted node can
        # reinstall the same programs before state replay).
        self.on_install: List[Callable[[Program], None]] = []
        # How many times this address has been crash-restarted; the
        # replacement node inherits predecessor's count + 1 (set by
        # System.restart_node).
        self.restarts = 0
        # The System that made this node (set by System.add_node), or
        # None: a monitor handle reaches its recovery manager through it.
        self.system = None

        # Counters beyond the work model.
        self.tuples_delivered = 0
        self.bytes_delivered = 0
        self.rule_executions = 0
        # Wire-level message id counter: stamped on every outgoing tuple
        # so receivers can recognize fabric duplicates/retransmissions.
        self._wire_mid = 0

        network.attach(address, self.receive)
        if self.overload is not None:
            # Reliable-transport receiver pushback: the network asks us
            # before acking a frame; a False here becomes a BUSY nack
            # that feeds the sender's existing retransmit backoff.
            network.set_admission(address, self._admit_frame)
        self._timers.append(
            sim.every(
                SWEEP_INTERVAL,
                self._sweep,
                start_delay=SWEEP_INTERVAL,
                group=self.label,
            )
        )

    # ------------------------------------------------------------------
    # Time

    def work_clock(self) -> float:
        """Virtual time plus intra-event micro-time (for trace timestamps)."""
        return self.now() + self.work._micro_offset

    # ------------------------------------------------------------------
    # Program installation

    def install(self, program: Program) -> CompiledProgram:
        """Validate-compile ``program`` and activate its rules.

        Tables materialize immediately; strands begin firing on future
        deliveries (no retro-triggering over existing table contents,
        matching P2).  Periodic strands get private timers with a random
        initial phase so a population of nodes does not fire in lockstep.
        """
        if self._stopped:
            raise RuntimeStateError(f"node {self.address} is stopped")
        compiled = self.planner.plan(program)
        self.programs.append(compiled)
        role = getattr(program, "role", "data")
        for strand in compiled.strands:
            strand.overload_class = role
        if self.overload is not None:
            # Derive the priority map at install time: relations this
            # program materializes or derives inherit its role.
            self.overload.learn_program(compiled, role)
        for name in compiled.table_names:
            self._observe_table(name)
        for watch in program.tree.watches:
            self.watch(watch.name)
        for strand in compiled.strands:
            self.strands.append(strand)
            if strand.periodic is not None:
                self._install_periodic(strand)
            else:
                self._strands_by_trigger[strand.trigger_name].append(strand)
                # Delta strands need their trigger table observed even if
                # a different program materialized it.
                if self.store.has(strand.trigger_name):
                    self._observe_table(strand.trigger_name)
        for callback in list(self.on_install):
            callback(program)
        return compiled

    def install_source(
        self,
        source: str,
        name: str = "program",
        bindings: Optional[Dict[str, Any]] = None,
    ) -> CompiledProgram:
        """Convenience: compile OverLog source text and install it."""
        return self.install(Program.compile(source, name=name, bindings=bindings))

    def uninstall(self, compiled: CompiledProgram) -> None:
        """Deactivate a previously installed program on-line.

        Strands stop firing and their private timers are cancelled;
        already-queued firings are dropped.  Tables the program
        materialized remain (they are shared state other programs may
        reference; their soft-state contents expire naturally).
        """
        if compiled not in self.programs:
            raise RuntimeStateError(
                f"program {compiled.name!r} is not installed on "
                f"{self.address}"
            )
        self.programs.remove(compiled)
        removed = set(compiled.strands)
        for strand in compiled.strands:
            if strand in self.strands:
                self.strands.remove(strand)
            triggered = self._strands_by_trigger.get(strand.trigger_name)
            if triggered and strand in triggered:
                triggered.remove(strand)
            timer = self._periodic_timers.pop(strand, None)
            if timer is not None:
                timer.cancel()
        self._queue = deque(
            (strand, tup)
            for strand, tup in self._queue
            if strand not in removed
        )

    def _observe_table(self, name: str) -> None:
        if name in self._observed_tables:
            return
        table = self.store.get(name)
        self._observed_tables[name] = table
        table.on_insert.append(
            lambda tup, outcome, _name=name: self._on_table_insert(tup)
        )

    def _install_periodic(self, strand: RuleStrand) -> None:
        nonce_var, period = strand.periodic
        start = self.rng.uniform(0, period)
        timer = self.sim.every(
            period,
            partial(self._fire_periodic, strand),
            start_delay=start,
            group=self.label,
        )
        self._timers.append(timer)
        self._periodic_timers[strand] = timer

    def _fire_periodic(self, strand: RuleStrand) -> None:
        if self._stopped:
            return
        ctrl = self.overload
        if ctrl is not None and not ctrl.admit_periodic(
            strand.overload_class, strand.rule_id
        ):
            return
        # A timer turn is one of the node's own turns, like a receive:
        # its rules read the work clock from the turn's start
        # (WorkModel.reset_micro, without the frame).
        work = self.work
        work._micro_offset = 0.0
        work.charge("timer")
        # rng.randrange(1 << 31), spelled as the draws it makes (32 bits,
        # again while out of range): same nonces, three frames fewer on
        # what is one firing in every periodic rule's turn.
        getrandbits = self.rng.getrandbits
        nonce = getrandbits(32)
        while nonce >= 1 << 31:
            nonce = getrandbits(32)
        period = strand.periodic[1]
        tup = Tuple("periodic", (self.address, nonce, period))
        if self.registry is not None:
            self.registry.ensure(tup, loc_spec=self.address)
        self._queue.append((strand, tup))
        self._pump()

    # ------------------------------------------------------------------
    # Tuple entry points

    def receive(self, message: Message) -> None:
        """Network delivery callback: admit and apply one message.

        Serves per-message and coalesced fabric delivery alike.  Each
        message is processed to strand fixpoint before the caller hands
        over the next one, so a firing never observes a later same-tick
        arrival.
        """
        if self._stopped:
            return
        self.work.reset_micro()
        self.work.charge("receive")
        ctrl = self.overload
        if ctrl is not None:
            relation = message.body.name
            if message.admitted:
                # The reliable-transport gate (:meth:`_admit_frame`)
                # already ran admit_remote and accepted; count the
                # arrival without re-deciding, or we would double-count
                # the offer.
                ctrl.count_arrival(relation)
            elif not ctrl.admit_mailbox(relation):
                return
            # Zero service time processes inline — exactly the
            # pre-overload behaviour, plus admission accounting.
            if ctrl.service_delay > 0.0:
                if ctrl.mailbox_push(message):
                    self._schedule_drain()
                else:
                    # The mailbox hit hard-full after the admission
                    # decision (reordered reliable frames are admitted
                    # at arrival but delivered when gaps fill); retract
                    # the admission.
                    ctrl.shed_after_admit(relation)
                return
        self._apply(message)

    def _apply(self, message: Message) -> None:
        """Apply an admitted message's body — a tuple arriving with the
        sender's trace identity, or a remote delete — and pump."""
        body = message.body
        if body.__class__ is Tuple:
            if self.registry is not None:
                self.registry.on_arrival(
                    body, message.src, message.src_tid, mid=message.mid
                )
            self._deliver_local(body)
        else:
            self._delete_here(body.name, body.pattern)
        self._pump()

    def _admit_frame(self, message: Message) -> bool:
        """Reliable-transport receiver gate (``Network.set_admission``).

        Called before a non-duplicate frame is acked; False becomes a
        BUSY nack that feeds the sender's retransmit backoff.  The
        network marks an accepted frame ``admitted`` so :meth:`receive`
        does not re-admit it.
        """
        if self._stopped or self.overload is None:
            return True
        return self.overload.admit_remote(message.body.name)

    def _schedule_drain(self) -> None:
        if self._drain_timer is not None or self._stopped:
            return
        self._drain_armed = self.sim.clock._now
        self._drain_timer = self.sim.schedule(
            self.overload.service_delay,
            self._drain_mailbox,
            group=self.label,
        )

    def _drain_mailbox(self) -> None:
        """Serve the mailbox messages the time since the drain was armed
        pays for, then re-arm while work remains.

        The node serves one message per ``service_delay``, but a drain
        lands on the tick grid: a delay below one tick still waits a
        whole tick.  Serving every message the elapsed time pays for,
        and banking the fraction, keeps the service rate (and a
        slow_node factor) exact at any delay.  An idle node banks
        nothing.
        """
        self._drain_timer = None
        ctrl = self.overload
        if self._stopped or ctrl is None or not ctrl.mailbox:
            return
        credit = self._drain_credit + (
            self.sim.clock._now - self._drain_armed
        ) / ctrl.service_delay
        # At least one: grid snapping may land a hair before the full
        # service time.
        serve = max(1, int(credit + 1e-9))
        for _ in range(serve):
            message = ctrl.mailbox_pop()
            self.work.reset_micro()
            self._apply(message)
            if self._stopped or not ctrl.mailbox:
                self._drain_credit = 0.0
                return
        self._drain_credit = max(0.0, credit - serve)
        self._schedule_drain()

    def inject(self, name: str, values: PyTuple) -> None:
        """Introduce a tuple from outside (tests, harnesses, consoles).

        The tuple is routed by its location specifier, so injecting a
        tuple whose first field names another node sends it there.  A
        value outside the language's domain (:mod:`repro.codec`) raises
        :class:`~repro.errors.NetworkError` before anything sees it.
        """
        if self._stopped:
            raise RuntimeStateError(f"node {self.address} is stopped")
        tup = Tuple(name, values)
        codec.check(tup.values)
        self.work.reset_micro()
        if tup.location == self.address:
            self._deliver_local(tup)
        else:
            self._send_tuple(tup)
        self._pump()

    # ------------------------------------------------------------------
    # Delivery and the pump

    def _deliver_local(self, tup: Tuple) -> None:
        if self._stopped:
            return  # stopped mid-turn: the rest of the turn goes nowhere
        self.tuples_delivered += 1
        size = tup._size  # cached by estimated_size(); -1 until asked
        self.bytes_delivered += size if size >= 0 else tup.estimated_size()
        if self.registry is not None:
            self.registry.ensure(tup, loc_spec=tup.location)
        for callback in self.on_deliver:
            callback(tup)
        try:
            table, strands, subscribers = self._sinks[tup.name]
        except KeyError:
            table, strands, subscribers = self._sink(tup.name)
        if table is not None:
            self.work.charge("insert")
            table.insert(tup)
            # Strand triggering happens via the table observer so that
            # direct table inserts (e.g. from harness code) also fire.
            return
        if self.overload is not None:
            self._enqueue_admitted(strands, tup)
        else:
            for strand in strands:
                self._queue.append((strand, tup))
        for callback in subscribers:
            callback(tup)

    def _sink(self, name: str) -> PyTuple:
        """Where deliveries of ``name`` go: its table, or — for an event —
        the strands it triggers and its subscribers.

        The two lists are the live ones ``install``/``uninstall`` and
        ``subscribe``/``unsubscribe`` edit in place, so a sink only goes
        stale when the relation gains a table (:meth:`_drop_sink`) or
        the node stops.
        """
        table = self.store.find(name)
        if table is not None:
            sink = (table, (), ())
        else:
            sink = (None, self._strands_by_trigger[name], self._subscribers[name])
        self._sinks[name] = sink
        return sink

    def _drop_sink(self, table: Table) -> None:
        self._sinks.pop(table.name, None)

    def _enqueue_admitted(self, strands: List[RuleStrand], tup: Tuple) -> None:
        """Queue ``tup`` for the strands overload control lets through."""
        ctrl = self.overload
        queue = self._queue
        for strand in strands:
            if ctrl.admit_strand(strand.overload_class, len(queue), tup.name):
                queue.append((strand, tup))

    def _on_table_insert(self, tup: Tuple) -> None:
        name = tup.name
        strands = self._strands_by_trigger.get(name)
        subscribers = self._subscribers.get(name)
        if not strands and not subscribers and not self._queue:
            # Nothing observes this relation and no work is queued:
            # enqueue, notify, and pump would all be no-ops.  This is
            # the monitoring fan-in hot path — collectors absorbing
            # status streams into tables no rule triggers on.
            return
        if strands:
            if self.overload is not None:
                self._enqueue_admitted(strands, tup)
            else:
                for strand in strands:
                    self._queue.append((strand, tup))
        if subscribers:
            for callback in subscribers:
                callback(tup)
        # Table observers can fire outside the pump (direct inserts).
        self._pump()

    def _pump(self) -> None:
        if self._pumping or self._stopped:
            return
        self._pumping = True
        ctrl = self.overload
        ctx = self.ctx
        charge = self.work.charge
        address = self.address
        try:
            while self._queue:
                strand, trigger = self._queue.popleft()
                if ctrl is not None:
                    ctrl.note_strand_depth(len(self._queue))
                self.rule_executions += 1
                if self.obs is None:
                    actions = strand.fire(trigger, ctx, self.hooks, charge)
                else:
                    actions = strand.fire_timed(trigger, ctx, self.hooks, self.work)
                for action in actions:
                    if action.__class__ is not Tuple:
                        self._delete(action)
                    elif action.values[0] == address:
                        self._deliver_local(action)
                    else:
                        self._send_tuple(action)
        finally:
            self._pumping = False

    def _delete(self, action: DeleteAction) -> None:
        if self._stopped:
            return
        if action.location == self.address:
            self._delete_here(action.name, action.pattern)
            return
        self.work.charge("send")
        pattern = wire_values(tuple(action.pattern))
        self.network.send(
            self.address,
            str(action.location),
            DeleteAction(action.name, action.location, pattern),
            size=delete_length(action.name, pattern),
        )

    def _delete_here(self, name: str, pattern: PyTuple) -> None:
        table = self.store.find(name)
        if table is not None:
            removed = table.delete_matching(list(pattern))
            self.work.charge("delete", max(1, removed))

    def _send_tuple(self, tup: Tuple) -> None:
        """Ship ``tup`` to its location as the tuple the receiver would
        decode from its wire form, sized exactly (:mod:`repro.net.marshal`)."""
        if self._stopped:
            return
        self.work.charge("send")
        dst = str(tup.values[0])
        src_tid = None
        if self.registry is not None:
            src_tid = self.registry.on_send(tup, dst)
        self._wire_mid += 1
        mid = self._wire_mid
        body = payload_for(tup)
        self.network.send(
            self.address,
            dst,
            body,
            wire_length(body, self.address, src_tid, mid),
            src_tid,
            mid,
        )

    # ------------------------------------------------------------------
    # Observation helpers

    def watch(self, name: str, capacity: Optional[int] = None) -> List[PyTuple]:
        """Activate a P2-style watchpoint on ``name`` tuples.

        Every delivery is recorded as ``(virtual_time, tuple)`` in a
        bounded ring, returned here and via :meth:`watched`; overflow
        evicts the oldest entries and counts them in
        :attr:`watch_evicted`.  ``capacity=None`` applies the node's
        overload ``watch_capacity`` (default 1000) on first watch and
        keeps the current capacity on a re-watch; an explicit capacity
        on a re-watch resizes the existing ring.  The ``watch(name).``
        OverLog statement calls this on install.
        """
        if capacity is not None and capacity < 0:
            raise RuntimeStateError(
                f"watch capacity must be >= 0: {capacity}"
            )
        if name in self._watches:
            if capacity is not None:
                self._watch_caps[name] = capacity
                self._trim_watch(name)
            return self._watches[name]
        if capacity is None:
            capacity = (
                self.overload.config.watch_capacity
                if self.overload is not None
                else DEFAULT_WATCH_CAPACITY
            )
        self._watch_caps[name] = capacity
        buffer: List[PyTuple] = []
        self._watches[name] = buffer

        def record(tup: Tuple) -> None:
            buffer.append((self.sim.now, tup))
            self._trim_watch(name)

        self.subscribe(name, record)
        return buffer

    def _trim_watch(self, name: str) -> None:
        buffer = self._watches[name]
        cap = self._watch_caps[name]
        overflow = len(buffer) - cap
        if overflow > 0:
            del buffer[:overflow]
            self.watch_evicted[name] = (
                self.watch_evicted.get(name, 0) + overflow
            )

    def watched(self, name: str) -> List[PyTuple]:
        """The (time, tuple) buffer of a watchpoint (empty if not set)."""
        return self._watches.get(name, [])

    def subscribe(self, name: str, callback: Callable[[Tuple], None]) -> None:
        """Observe every delivery of ``name`` tuples on this node."""
        self._subscribers[name].append(callback)

    def unsubscribe(self, name: str, callback: Callable[[Tuple], None]) -> None:
        """Remove a subscription added with :meth:`subscribe` (no-op if
        absent)."""
        callbacks = self._subscribers.get(name)
        if callbacks and callback in callbacks:
            callbacks.remove(callback)

    def collect(self, name: str) -> List[Tuple]:
        """Subscribe and return the (live) list future deliveries append to."""
        sink: List[Tuple] = []
        self.subscribe(name, sink.append)
        return sink

    def query(self, name: str) -> List[Tuple]:
        """Current contents of a table (empty list if not materialized)."""
        if not self.store.has(name):
            return []
        return list(self.store.get(name).scan())

    # ------------------------------------------------------------------
    # Lifecycle and metrics

    def _sweep(self) -> None:
        if not self._stopped:
            self.store.sweep()
            self._pump()

    def stop(self) -> None:
        """Crash/stop the node: cancel timers and leave the network.

        Every observation channel is detached too — table observers,
        tracer taps, ``subscribe()`` callbacks, deliver/install hooks —
        so a dead node stops accumulating callback work and sinks
        registered through :meth:`subscribe` (e.g. ``System.collect``)
        never receive post-mortem tuples from direct table pokes.  The
        tables themselves (and any durable image a recovery recorder
        wrote) survive for forensics.
        """
        if self._stopped:
            return
        self._stopped = True
        for timer in self._timers:
            timer.cancel()
        self._timers.clear()
        self._periodic_timers.clear()
        self._queue.clear()
        if self._drain_timer is not None:
            self._drain_timer.cancel()
            self._drain_timer = None
        if self.overload is not None:
            # Tuples still queued in the mailbox at crash time were
            # admitted but never processed: account them as shed so the
            # per-class identity offered == admitted + shed + deferred
            # survives a stop() mid-storm.
            for message in self.overload.mailbox.clear():
                self.overload.shed_after_admit(
                    message.body.name, reason=SHED_STOPPED
                )
        for table in self.store.tables():
            table.clear_observers()
        self.store.on_create.clear()
        self._observed_tables.clear()
        self._subscribers.clear()
        self._sinks.clear()
        self.on_deliver.clear()
        self.on_install.clear()
        self.hooks = None
        self.obs = None
        if self.network.is_attached(self.address):
            self.network.detach(self.address)

    @property
    def stopped(self) -> bool:
        return self._stopped

    @property
    def status(self) -> str:
        """Lifecycle status for dashboards: ``up``, ``down``, or
        ``recovered`` (up again after >= 1 crash-restart)."""
        if self._stopped:
            return "down"
        return "recovered" if self.restarts else "up"

    def live_tuples(self) -> int:
        return self.store.live_tuples()

    def memory_bytes(self) -> int:
        return self.store.estimated_bytes()

    def cpu_utilization(self) -> float:
        """Busy fraction (work-model seconds / elapsed virtual seconds)."""
        return self.work.utilization(max(self.sim.now, 1e-9))

    def __repr__(self) -> str:
        return f"<P2Node {self.address} tables={len(self.store.names())}>"
