"""Forensics over a dead node's durable log.

The paper's forensic story is that the execution-trace tables
(``ruleExec``, ``tupleTable``, the event logs) are *queryable data* —
so the post-mortem interface is exactly the live interface: OverLog.
A :class:`PostMortem` replays a crashed node's durable image
(checkpoint + WAL, **without** its programs) into a quiet single-node
replica system whose clock starts at zero.  Because durable rows carry
absolute expiry deadlines stamped on the dead node's clock — which ran
ahead of the replica's — every record the node ever journaled is alive
in the replica, including rows that had *already expired* on the dead
node by crash time (their removal is in the WAL, so replay drops them
again; rows only the checkpoint knew stay queryable).

Investigators then run ordinary OverLog over the replica::

    pm = manager.post_mortem("n1:7000")
    pm.install_source(
        "fired(@X, Rule, T) :- ruleExec(@X, RId, Rule, NId, In, Out, T2, T).",
        name="forensics",
    )
    pm.run_for(1.0)
    history = pm.query("fired")

No live node is touched: the replica has its own simulator and network,
so forensic rule evaluation can't perturb the system under test.
"""

from __future__ import annotations

from typing import List, Optional

from repro.net.address import Address
from repro.overlog.program import Program
from repro.recovery.durable import DurableMedium
from repro.recovery.manager import RecoveryReport, replay_image
from repro.runtime.tuples import Tuple


class PostMortem:
    """A single-node replica of one address's durable image."""

    def __init__(
        self, medium: DurableMedium, address: Address, store=None
    ) -> None:
        from repro.core.system import System

        self.address = address
        self.image = medium.image(address)
        self.system = System()
        self.node = self.system.add_node(address)
        # Replay state only: the dead node's programs must not resume
        # firing in the replica — forensics reads history, it does not
        # continue the execution.
        self.report: RecoveryReport = replay_image(
            self.node, self.image, install_programs=False
        )
        #: Optional :class:`~repro.store.store.ForensicStore` backing
        #: the replica: trace rows the durable image no longer holds
        #: (the in-memory rings rotated before the last checkpoint)
        #: are backfilled from segments, so OverLog forensics see the
        #: full persisted history, not the ring-sized tail.
        self.store = store
        self.backfilled = {"ruleExec": 0, "tupleTable": 0}
        if store is not None:
            self._backfill_from_store()

    def _backfill_from_store(self) -> None:
        from repro.overlog.ast import Materialize
        from repro.overlog.types import INFINITY
        from repro.store import format as fmt

        label = str(self.address)
        if self.node.store.has("ruleExec"):
            rule_exec = self.node.store.get("ruleExec")
            # The replica is a forensic artifact, not a live node: lift
            # the ring bound the WAL replayed, or backfilled history
            # would just evict itself.
            rule_exec.max_size = INFINITY
            rule_exec.lifetime = INFINITY
        else:
            rule_exec = self.node.store.ring(
                Materialize("ruleExec", INFINITY, INFINITY, [2, 3, 4, 7])
            )
        present = {
            (r.values[1], r.values[2], r.values[3], r.values[6])
            for r in rule_exec.scan()
        }
        for record in self.store.iter_events(node=label, kind=fmt.RULE_EXEC):
            key = (record["r"], record["c"], record["e"], record["ev"])
            if key in present:
                continue
            present.add(key)
            rule_exec.insert(
                Tuple(
                    "ruleExec",
                    (
                        label,
                        record["r"],
                        record["c"],
                        record["e"],
                        record["ti"],
                        record["to"],
                        record["ev"],
                    ),
                )
            )
            self.backfilled["ruleExec"] += 1
        if self.node.store.has("tupleTable"):
            tuple_table = self.node.store.get("tupleTable")
            tuple_table.max_size = INFINITY
            tuple_table.lifetime = INFINITY
        else:
            tuple_table = self.node.store.ring(
                Materialize("tupleTable", INFINITY, INFINITY, [2])
            )
        held = {r.values[1] for r in tuple_table.scan()}
        for record in self.store.iter_events(node=label, kind=fmt.TUPLE_IDENT):
            if record["i"] in held:
                continue
            held.add(record["i"])
            source = self.store.source_of(label, record["i"])
            src, src_tid = source if source else (label, record["i"])
            tuple_table.insert(
                Tuple(
                    "tupleTable",
                    (label, record["i"], src, src_tid, record["l"]),
                )
            )
            self.backfilled["tupleTable"] += 1

    # ------------------------------------------------------------------

    def tables(self) -> List[str]:
        return sorted(t.name for t in self.node.store.tables())

    def query(self, name: str) -> List[Tuple]:
        """Scan one reconstructed table (empty list if it never existed)."""
        if not self.node.store.has(name):
            return []
        return self.node.query(name)

    def install(self, program: Program) -> None:
        """Install a forensic OverLog program on the replica."""
        self.node.install(program)

    def install_source(
        self, source: str, name: str = "postmortem", bindings: Optional[dict] = None
    ) -> None:
        self.install(Program.compile(source, name=name, bindings=bindings))

    def run_for(self, duration: float) -> None:
        """Advance the replica's virtual clock (drains forensic rules)."""
        self.system.run_for(duration)

    # ------------------------------------------------------------------
    # Canned forensic views

    def rule_exec_history(self) -> List[Tuple]:
        """The reconstructed ``ruleExec`` trace, oldest first.

        Rows are ``(addr, rule, causeID, effectID, inT, outT, isEvent)``
        — sorted by output time, then rule name.
        """
        rows = self.query("ruleExec")
        return sorted(rows, key=lambda t: (t.values[5], t.values[1]))

    def programs(self) -> List[str]:
        """OverLog sources the dead node had installed (human-readable)."""
        return [str(p) for p in self.image.programs]
