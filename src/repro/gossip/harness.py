"""Deployment harness for the gossip overlay."""

from __future__ import annotations

from typing import Dict, List, Set

from repro.core.system import System
from repro.errors import ReproError
from repro.gossip.program import gossip_program
from repro.net.address import make_address
from repro.runtime.node import P2Node
from repro.runtime.tuples import Tuple


#: Ring-neighbors each node starts knowing.
FANOUT = 2


class GossipNetwork:
    """A population of gossip nodes bootstrapped from a contact graph.

    Each node starts knowing its ``FANOUT`` ring-neighbors (a sparse
    contact graph); membership sharing (m3/m4) then densifies the view.
    """

    def __init__(
        self,
        num_nodes: int = 8,
        seed: int = 0,
        tracing: bool = False,
        stale_share_bug: bool = False,
        **system,
    ) -> None:
        """``system`` is forwarded verbatim to :class:`System` (latency
        model, transport, ...), which declares those options and their
        defaults."""
        if num_nodes < 1:
            raise ReproError(f"num_nodes must be at least 1, got {num_nodes!r}")
        self.system = System(seed=seed, **system)
        self.program = gossip_program(stale_share_bug=stale_share_bug)
        self.addresses: List[str] = [
            make_address(i, base_port=20000) for i in range(num_nodes)
        ]
        for address in self.addresses:
            self.system.add_node(address, tracing=tracing)

    def start(self) -> None:
        """Install the program and seed the sparse contact graph."""
        count = len(self.addresses)
        for index, address in enumerate(self.addresses):
            node = self.system.node(address)
            node.install(self.program)
            node.inject("self", (address,))
            node.inject("member", (address, address))
            for step in range(1, FANOUT + 1):
                contact = self.addresses[(index + step) % count]
                node.inject("member", (address, contact))

    def run_for(self, duration: float) -> None:
        self.system.run_for(duration)

    def node(self, address: str) -> P2Node:
        return self.system.node(address)

    def publish(self, src: str, msg_id: int, payload: str) -> None:
        """Inject a broadcast at ``src``."""
        self.system.node(src).inject("publish", (src, msg_id, payload))

    # ------------------------------------------------------------------
    # Oracle-side checks

    def coverage(self, msg_id: int) -> Set[str]:
        """Addresses that have delivered ``msg_id``."""
        out: Set[str] = set()
        for address in self.addresses:
            node = self.system.node(address)
            if node.stopped:
                continue
            for row in node.query("seenMsg"):
                if row.values[1] == msg_id:
                    out.add(address)
        return out

    def membership_views(self) -> Dict[str, Set[str]]:
        """Each node's current member set."""
        return {
            address: {
                row.values[1]
                for row in self.system.node(address).query("member")
            }
            for address in self.addresses
            if not self.system.node(address).stopped
        }

    def fully_meshed(self) -> bool:
        """True when every live node knows every *other* live node.

        (A node's own membership row ages out — nothing heartbeats to
        itself — which is harmless: forwarding skips self anyway.)
        """
        live = {
            a for a in self.addresses if not self.system.node(a).stopped
        }
        views = self.membership_views()
        return all(views[a] >= live - {a} for a in live)
