"""The :class:`System` façade: simulator + network + nodes in one object.

Every System runs on the simulator's one loop, a tick at a time, with
the fabric coalescing each tick's messages to a node into one event
(:mod:`repro.sim.simulator`); ``execution`` only sets the tick width.
"""

from __future__ import annotations

import math
import numbers
import os
from functools import partial
from typing import Dict, List, Optional

from repro.errors import ReproError
from repro.net.address import Address
from repro.net.network import Network, ReliableConfig
from repro.net.topology import ConstantLatency, LatencyModel
from repro.obs.telemetry import Telemetry, wire_system_metrics
from repro.obs.export import (
    write_chrome_trace,
    write_jsonl,
    write_prometheus,
)
from repro.overload.controller import OverloadConfig
from repro.overlog.program import Program
from repro.overlog.types import DEFAULT_ID_BITS
from repro.runtime.node import P2Node
from repro.runtime.table import Ring
from repro.sim.batch import ExecutionConfig
from repro.sim.simulator import Simulator
from repro.introspect import EventLogger, Reflector, Tracer
from repro.introspect.tracer import RULE_EXEC
from repro.store.store import RINGS, ForensicStore, StoreConfig


def _check_rings(
    trace_lifetime: float, trace_entries: int, log_capacity: int, tuple_entries: int
) -> None:
    """Reject a ring lifetime that is not a positive finite number of
    seconds, and a ring capacity that is not an integer of at least 1."""
    if (
        isinstance(trace_lifetime, bool)
        or not isinstance(trace_lifetime, numbers.Real)
        or not 0 < trace_lifetime < math.inf
    ):
        raise ReproError(
            "trace_lifetime must be a positive finite number of seconds, "
            f"got {trace_lifetime!r}"
        )
    for name, value in (
        ("trace_entries", trace_entries),
        ("log_capacity", log_capacity),
        ("tuple_entries", tuple_entries),
    ):
        if (
            isinstance(value, bool)
            or not isinstance(value, numbers.Integral)
            or value < 1
        ):
            raise ReproError(f"{name} must be an integer >= 1, got {value!r}")


class System:
    """A simulated deployment of P2 nodes.

    Owns the discrete-event simulator and the network; creates nodes and
    optionally wires their introspection (tracing / event logging /
    reflection).  All randomness derives from ``seed``.

    The telemetry plane (:mod:`repro.obs`) always exists — its metrics
    registry is a lazy read layer over counters the runtime maintains
    anyway — but spans and the flight recorder only activate with
    ``observability=True``; disabled, no hot path ever calls into it.
    """

    def __init__(
        self,
        seed: int = 0,
        latency: Optional[LatencyModel] = None,
        loss_rate: float = 0.0,
        id_bits: int = DEFAULT_ID_BITS,
        transport: str = "udp",
        reliable: Optional[ReliableConfig] = None,
        duplicate_rate: float = 0.0,
        observability: bool = False,
        overload: Optional[OverloadConfig] = None,
        execution: ExecutionConfig = ExecutionConfig(),
        store: Optional[StoreConfig] = None,
        trace_lifetime: float = 120.0,
        trace_entries: int = 5000,
        log_capacity: int = 2000,
        tuple_entries: int = 100000,
    ) -> None:
        #: The tick grid the simulator's one loop runs on
        #: (:mod:`repro.sim.batch`).
        if not isinstance(execution, ExecutionConfig):
            raise ReproError(
                f"execution must be an ExecutionConfig, got {execution!r}"
            )
        self.execution = execution
        self.sim = Simulator(seed=seed, tick=execution.tick)
        self.telemetry = Telemetry(
            clock=self.sim.clock.reader(),
            enabled=observability,
        )
        self.network = Network(
            self.sim,
            latency if latency is not None else ConstantLatency(0.01),
            loss_rate=loss_rate,
            transport=transport,
            reliable=reliable,
            duplicate_rate=duplicate_rate,
            obs=self.telemetry if observability else None,
        )
        self.id_bits = id_bits
        #: Overload-protection config applied to every node (None keeps
        #: all hot paths exactly as before; see :mod:`repro.overload`).
        self.overload = overload
        #: Introspection-ring lifetime and capacities of every node.
        _check_rings(trace_lifetime, trace_entries, log_capacity, tuple_entries)
        self.trace_lifetime = trace_lifetime
        self.trace_entries = trace_entries
        self.log_capacity = log_capacity
        self.tuple_entries = tuple_entries
        #: The durable forensic event store (:mod:`repro.store`), or
        #: None.  Enabled, it taps every traced/logged node's hooks and
        #: keeps answering provenance queries after the rings rotate.
        self.store: Optional[ForensicStore] = None
        if store is not None:
            self.store = ForensicStore(
                store,
                clock=self.sim.clock.reader(),
                rotations=lambda: self.ring_rotations,
            )
            # Cut segments at tick barriers, never mid-tick.
            self.sim.on_tick.append(self.store.on_tick_barrier)
        # The introspection rings per ``(node address, ring name)``,
        # and the keys whose ring has rotated, in order of their first
        # eviction (see :attr:`ring_rotations`).
        self._rings: Dict[tuple, Ring] = {}
        self._rotated: Dict[tuple, None] = {}
        self.nodes: Dict[Address, P2Node] = {}
        self.tracers: Dict[Address, Tracer] = {}
        self.loggers: Dict[Address, EventLogger] = {}
        self.reflectors: Dict[Address, Reflector] = {}
        #: Per-address ``add_node`` options, kept so ``restart_node`` can
        #: rebuild a crashed node with identical introspection wiring.
        self._node_config: Dict[Address, dict] = {}
        #: Set by :class:`repro.recovery.manager.RecoveryManager`.
        self.recovery = None
        wire_system_metrics(self.telemetry, self)

    # ------------------------------------------------------------------

    def add_node(
        self,
        address: Address,
        tracing: bool = False,
        logging: bool = False,
        reflection: bool = False,
    ) -> P2Node:
        """Create and register a node; optionally enable introspection.

        Its rings take the lifetime and capacities given at construction.
        """
        if address in self.nodes:
            raise ReproError(f"node {address!r} already exists")
        node = P2Node(
            address,
            self.sim,
            self.network,
            id_bits=self.id_bits,
            overload=self.overload,
        )
        node.system = self
        if node.overload is not None and self.telemetry.enabled:
            node.overload.telemetry = self.telemetry
        self.nodes[address] = node
        self._node_config[address] = {
            "tracing": tracing,
            "logging": logging,
            "reflection": reflection,
        }
        if tracing:
            self.tracers[address] = Tracer(
                node,
                lifetime=self.trace_lifetime,
                max_entries=self.trace_entries,
                tuple_entries=self.tuple_entries,
            )
        if logging:
            self.loggers[address] = EventLogger(node, capacity=self.log_capacity)
        if reflection:
            self.reflectors[address] = Reflector(node)
        if self.store is not None and (tracing or logging):
            self.store.attach_node(
                node,
                tracer=self.tracers.get(address),
                logger=self.loggers.get(address),
            )
        if tracing or logging:
            self._watch_rings(address, node)
        if self.telemetry.enabled:
            node.obs = self.telemetry
        return node

    def _watch_rings(self, address: Address, node: P2Node) -> None:
        """Follow the eviction counters of the node's introspection rings.

        A restarted node's ring carries on its predecessor's count.  The
        first eviction of each ``(node, ring)`` emits a
        ``store.ring_rotated`` recorder event — the signal that
        in-memory forensics on that node are now lossy and post-mortems
        should consult the durable store.
        """
        label = str(address)
        for name in RINGS:
            ring = node.store.find(name)
            if not isinstance(ring, Ring):
                continue
            key = (label, name)
            previous = self._rings.get(key)
            if previous is not None:
                ring.evicted = previous.evicted
            self._rings[key] = ring
            ring.on_rotate = partial(self._ring_rotated, key)

    def _ring_rotated(self, key: tuple) -> None:
        if key not in self._rotated:
            self._rotated[key] = None
            self.telemetry.event("store.ring_rotated", node=key[0], ring=key[1])

    @property
    def ring_rotations(self) -> Dict[tuple, int]:
        """Ring evictions per ``(node address, ring name)`` — the counter
        behind ``store_ring_rotations_total`` — read off the rings, in
        order of each key's first eviction."""
        return {key: self._rings[key].evicted for key in self._rotated}

    def node(self, address: Address) -> P2Node:
        node = self.nodes.get(address)
        if node is None:
            raise ReproError(f"no node {address!r}")
        return node

    def install(
        self, program: Program, on: Optional[List[Address]] = None
    ) -> None:
        """Install ``program`` on the given nodes (default: all)."""
        targets = on if on is not None else list(self.nodes)
        for address in targets:
            self.node(address).install(program)

    def install_source(
        self,
        source: str,
        name: str = "program",
        bindings: Optional[dict] = None,
        on: Optional[List[Address]] = None,
    ) -> None:
        """Compile once, install on the given nodes (default: all)."""
        program = Program.compile(source, name=name, bindings=bindings)
        self.install(program, on=on)

    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        return self.sim.now

    def run_for(self, duration: float) -> None:
        self.sim.run_for(duration)

    def run_until(self, when: float) -> None:
        self.sim.run_until(when)

    # ------------------------------------------------------------------

    def crash(self, address: Address) -> None:
        """Fail-stop a node (it stops processing and leaves the network)."""
        self.node(address).stop()
        reflector = self.reflectors.get(address)
        if reflector is not None:
            reflector.stop()

    def restart_node(self, address: Address) -> P2Node:
        """Replace a crashed node with a fresh, empty one.

        The new node gets the same introspection configuration the old
        one was created with.  State replay and ring re-join are the
        :class:`~repro.recovery.manager.RecoveryManager`'s job — this
        only rebuilds the process.
        """
        old = self.nodes.get(address)
        if old is None:
            raise ReproError(f"no node {address!r} to restart")
        if not old.stopped:
            raise ReproError(
                f"node {address!r} is still running; crash it first"
            )
        config = self._node_config.get(address, {})
        restarts = old.restarts + 1
        del self.nodes[address]
        self.tracers.pop(address, None)
        self.loggers.pop(address, None)
        self.reflectors.pop(address, None)
        node = self.add_node(address, **config)
        node.restarts = restarts
        return node

    def live_nodes(self) -> List[Address]:
        return [a for a, n in self.nodes.items() if not n.stopped]

    def total_live_tuples(self) -> int:
        return sum(n.live_tuples() for n in self.nodes.values())

    def collect(self, name: str, on: Optional[List[Address]] = None) -> list:
        """Subscribe on the given nodes; returns one shared live list."""
        sink: list = []
        targets = on if on is not None else list(self.nodes)
        for address in targets:
            self.node(address).subscribe(name, sink.append)
        return sink

    # ------------------------------------------------------------------

    def export_telemetry(
        self,
        directory: str,
        prefix: str = "telemetry",
        meta: Optional[dict] = None,
    ) -> Dict[str, str]:
        """Write the three telemetry artifacts into ``directory``.

        Returns ``{"trace": ..., "jsonl": ..., "prom": ...}`` paths.  The
        Chrome trace's ``rule_exec`` spans are the traced nodes' retained
        ``ruleExec`` rows.  The exports are byte-stable for a given seed
        and workload: every timestamp comes from the virtual clock and
        every ordering is explicitly sorted.
        """
        os.makedirs(directory, exist_ok=True)
        if meta is None:
            meta = {
                "seed": self.sim.random.seed,
                "now": self.sim.now,
                "nodes": len(self.nodes),
            }
        paths = {
            "trace": os.path.join(directory, f"{prefix}.trace.json"),
            "jsonl": os.path.join(directory, f"{prefix}.jsonl"),
            "prom": os.path.join(directory, f"{prefix}.prom"),
        }
        executions = [
            row.values
            for address in self.tracers
            for row in self.nodes[address].query(RULE_EXEC)
        ]
        write_chrome_trace(self.telemetry, paths["trace"], meta, executions)
        write_jsonl(self.telemetry, paths["jsonl"], meta=meta)
        write_prometheus(self.telemetry, paths["prom"])
        return paths

    def close_store(self) -> Optional[ForensicStore]:
        """Flush and finalize the forensic store (if one is enabled).

        Returns the store so callers can chain into offline queries:
        ``system.close_store()`` then ``python -m repro store ...`` on
        its directory.  Capture stops; the segments and manifest on
        disk are complete and byte-stable for the seeded run.
        """
        if self.store is not None:
            self.store.close()
        return self.store
