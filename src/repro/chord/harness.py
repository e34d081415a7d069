"""Deployment harness for P2-Chord populations.

Builds a :class:`repro.core.System`, creates N nodes with deterministic
ring IDs, installs the Chord program, scripts staggered joins (with
retries, since a join lookup can race the landmark's own bootstrap), and
provides oracle-side correctness checks used by tests, examples, and the
benchmark harness.

The paper's evaluation setup is 21 virtual nodes — 20 that start and
stabilize first, then a 21st whose costs are measured.  See
``ChordNetwork.paper_setup`` for that exact configuration.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.system import System
from repro.chord import ids as ring
from repro.errors import ReproError
from repro.chord.program import ChordParams, chord_program
from repro.net.address import make_address
from repro.overlog.types import NodeID
from repro.runtime.node import P2Node
from repro.runtime.tuples import Tuple

#: Seconds after a join at which a node still without a successor (its
#: join lookup was lost or raced the landmark's bootstrap) joins again.
JOIN_RETRY = 15.0
#: Joins retried after a node's first join, and after the re-join of a
#: node :meth:`ChordNetwork.ensure_joined` found evicted.
JOIN_RETRIES = 5
REJOIN_RETRIES = 3
#: Delay before the first re-join attempt after a crash-restart.
REJOIN_DELAY = 5.0


class ChordNetwork:
    """A population of Chord nodes inside one simulated system."""

    def __init__(
        self,
        num_nodes: int = 21,
        seed: int = 0,
        params: Optional[ChordParams] = None,
        tracing: bool = False,
        logging: bool = False,
        recycle_dead_bug: bool = False,
        **system,
    ) -> None:
        """``system`` is forwarded verbatim to :class:`System` (latency
        model, transport, fault rates, ``observability``, ``overload``,
        ``execution``, ``store``, ring capacities, ...): options and their
        defaults are declared there, once."""
        if num_nodes < 1:
            raise ReproError(f"num_nodes must be at least 1, got {num_nodes!r}")
        self.params = params if params is not None else ChordParams()
        self.system = System(seed=seed, id_bits=self.params.id_bits, **system)
        self.program = chord_program(self.params, recycle_dead_bug)
        self.addresses: List[str] = [
            make_address(i) for i in range(num_nodes)
        ]
        self.ids: Dict[str, NodeID] = {
            addr: ring.node_id_for(addr, self.params.id_bits)
            for addr in self.addresses
        }
        self.landmark = self.addresses[0]
        self._joined: set = set()
        #: Set by :meth:`enable_recovery`.
        self.recovery = None
        for addr in self.addresses:
            self.system.add_node(addr, tracing=tracing, logging=logging)

    # ------------------------------------------------------------------
    # Bootstrap

    def start(self, join_spacing: float = 1.0) -> None:
        """Install Chord everywhere and schedule staggered joins.

        The landmark joins first (forming the single-node ring); node i
        joins at ``i * join_spacing``.  If a node has no successor
        ``JOIN_RETRY`` seconds after joining (its join lookup was lost
        or raced the landmark), the join event is re-injected, up to
        ``JOIN_RETRIES`` times.
        """
        for addr in self.addresses:
            self._prepare(addr)
        for index, addr in enumerate(self.addresses):
            self.system.sim.schedule(
                index * join_spacing,
                lambda a=addr: self._join(a, JOIN_RETRIES),
            )

    def _prepare(self, addr: str) -> None:
        node = self.system.node(addr)
        node.install(self.program)
        node.inject("node", (addr, self.ids[addr]))
        node.inject("landmark", (addr, self.landmark))
        node.inject("nextFingerFix", (addr, 0))

    def _join(self, addr: str, retries: int) -> None:
        node = self.system.node(addr)
        if node.stopped:
            return
        nonce = self.system.sim.random.stream("chord.join").randrange(1 << 31)
        node.inject("join", (addr, nonce))
        self._joined.add(addr)
        if retries > 0:
            self.system.sim.schedule(
                JOIN_RETRY, lambda: self._retry_join(addr, retries - 1)
            )

    def _retry_join(self, addr: str, retries: int) -> None:
        node = self.system.node(addr)
        if node.stopped or node.query("bestSucc"):
            return
        self._join(addr, retries)

    def ensure_joined(self, addr: str) -> bool:
        """Re-inject a join for a node that lost its ring membership.

        A node isolated (or silenced) longer than the ping-eviction
        horizon is dropped by every neighbor while its own successor
        entries expire; once the network heals, nothing routes to it
        and it routes to nobody — it must re-join through the landmark,
        exactly Chord's prescribed recovery.  No-op (returns False) for
        nodes that still hold a plausible successor, so calling this on
        every node after a fault window only touches the evicted ones.
        """
        node = self.system.node(addr)
        if node.stopped:
            return False
        succ = self.best_succ_of(addr)
        if succ is not None and (succ != addr or len(self.addresses) == 1):
            return False
        # Bootstrap through any node still holding a ring position —
        # the original landmark may itself be the evicted node.
        for other in self.live_addresses():
            if other == addr:
                continue
            other_succ = self.best_succ_of(other)
            if other_succ is not None and other_succ != other:
                node.inject("landmark", (addr, other))
                break
        self._join(addr, REJOIN_RETRIES)
        return True

    def add_late_node(self, tracing: bool = False) -> str:
        """Create one more node (joined separately) and return its address.

        This is the paper's "21st node": the measured node added after
        the rest of the population has stabilized.
        """
        addr = make_address(len(self.addresses))
        self.addresses.append(addr)
        self.ids[addr] = ring.node_id_for(addr, self.params.id_bits)
        self.system.add_node(addr, tracing=tracing)
        self._prepare(addr)
        self._join(addr, JOIN_RETRIES)
        return addr

    @classmethod
    def paper_setup(cls, seed: int = 0) -> "tuple[ChordNetwork, str]":
        """The paper's §4 configuration: 20 nodes stabilize, then the
        21st (measured) node joins.  Returns (network, measured_addr).

        The pre-population runs for 5 simulated minutes before the
        measured node appears, as in the paper.
        """
        net = cls(num_nodes=20, seed=seed)
        net.start()
        net.system.run_for(300.0)
        measured = net.add_late_node()
        net.system.run_for(60.0)
        return net, measured

    # ------------------------------------------------------------------
    # Running and fault injection

    def run_for(self, duration: float) -> None:
        self.system.run_for(duration)

    def kill(self, addr: str) -> None:
        """Fail-stop one node."""
        if self.recovery is not None:
            self.recovery.crash(addr)
        else:
            self.system.crash(addr)

    def enable_recovery(self, checkpoint_interval: float = 30.0):
        """Protect every node with durable checkpoint+WAL state.

        After :meth:`restart`, the recovered node re-enters the ring
        through the existing :meth:`ensure_joined` machinery.  One check
        is not enough: a successor entry whose TTL survived the downtime
        replays as *stale* state, making the first ``ensure_joined`` a
        no-op — and once it expires, nothing else would ever retry.  So
        the hook arms a retry ladder (``REJOIN_DELAY`` then 30 s apart)
        long enough to outlive any replayed successor's remaining TTL;
        every call after a successful re-join is a no-op.
        """
        from repro.recovery.manager import RecoveryManager

        if self.recovery is not None:
            return self.recovery
        self.recovery = RecoveryManager(
            self.system, checkpoint_interval=checkpoint_interval
        )
        self.recovery.protect_all()

        def rejoin(addr, node, report):
            for attempt in range(5):
                self.system.sim.schedule(
                    REJOIN_DELAY + attempt * 30.0,
                    lambda a=addr: self.ensure_joined(a),
                )

        self.recovery.on_restart.append(rejoin)
        return self.recovery

    def restart(self, addr: str):
        """Recover a crashed node from its durable image (requires
        :meth:`enable_recovery` before the crash)."""
        if self.recovery is None:
            raise ReproError(
                "enable_recovery() was never called on this network"
            )
        return self.recovery.restart(addr)

    def node(self, addr: str) -> P2Node:
        return self.system.node(addr)

    def live_addresses(self) -> List[str]:
        return [
            a
            for a in self.addresses
            if not self.system.node(a).stopped and a in self._joined
        ]

    def live_ids(self) -> Dict[str, NodeID]:
        return {a: self.ids[a] for a in self.live_addresses()}

    # ------------------------------------------------------------------
    # Oracle checks

    def best_succ_of(self, addr: str) -> Optional[str]:
        rows = self.system.node(addr).query("bestSucc")
        if not rows:
            return None
        return rows[0].values[2]

    def pred_of(self, addr: str) -> Optional[str]:
        rows = self.system.node(addr).query("pred")
        if not rows:
            return None
        value = rows[0].values[2]
        return None if value == "-" else value

    def ring_correct(self) -> bool:
        """Every live node's bestSucc matches the oracle successor map."""
        live = self.live_ids()
        if not live:
            return False
        expected = ring.successor_map(live)
        for addr in live:
            if self.best_succ_of(addr) != expected[addr]:
                return False
        return True

    def ring_errors(self) -> List[str]:
        """Human-readable list of successor mismatches (for debugging)."""
        live = self.live_ids()
        expected = ring.successor_map(live)
        errors = []
        for addr in sorted(live):
            actual = self.best_succ_of(addr)
            if actual != expected[addr]:
                errors.append(
                    f"{addr}: bestSucc={actual} expected={expected[addr]}"
                )
        return errors

    def wait_stable(
        self, max_time: float = 300.0, check_interval: float = 5.0
    ) -> bool:
        """Run until the ring is oracle-correct (or the deadline passes)."""
        deadline = self.system.now + max_time
        while self.system.now < deadline:
            if self.ring_correct():
                return True
            self.system.run_for(check_interval)
        return self.ring_correct()

    # ------------------------------------------------------------------
    # Lookups

    def lookup(
        self, src: str, key: NodeID, timeout: float = 10.0
    ) -> Optional[Tuple]:
        """Issue a lookup from ``src`` and wait for its result.

        Returns the ``lookupResults`` tuple, or None on timeout (e.g.
        the request was routed into a dead node).
        """
        node = self.system.node(src)
        nonce = self.system.sim.random.stream("chord.lookup").randrange(1 << 31)
        results: List[Tuple] = []

        def on_result(tup: Tuple) -> None:
            if tup.values[4] == nonce:
                results.append(tup)

        node.subscribe("lookupResults", on_result)
        node.inject("lookup", (src, key, src, nonce))
        deadline = self.system.now + timeout
        while not results and self.system.now < deadline:
            self.system.run_for(0.05)
        return results[0] if results else None

    def lookup_owner(self, key: NodeID) -> Optional[str]:
        """Oracle answer for ``key`` over currently live nodes."""
        return ring.owner_of(key, self.live_ids())
