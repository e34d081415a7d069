"""Monitor base machinery.

A :class:`Monitor` wraps an OverLog rule set with named alarm events.
Installing it on a set of nodes compiles the program once and returns a
:class:`MonitorHandle` whose ``alarms`` dict accumulates every alarm
tuple raised anywhere in the population — the Python-side equivalent of
the paper's "distributed watchpoints and triggers".
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional

from repro.overlog.program import Program
from repro.runtime.node import P2Node
from repro.runtime.tuples import Tuple


class MonitorHandle:
    """Collected alarms from one monitor installation.

    Also the removal handle: :meth:`remove` deactivates the monitor's
    rules on every node (tables and their soft-state contents remain,
    per :meth:`repro.runtime.node.P2Node.uninstall`).

    The handle is keyed on addresses.  When the nodes' system has a
    :class:`~repro.recovery.manager.RecoveryManager` at install time, a
    restarted node replays the monitor's program from its durable
    image, and the handle's ``on_restart`` hook re-subscribes to the
    replacement and takes over its copy of the program, so alarms keep
    arriving and :meth:`remove` reaches the node that is live.
    """

    def __init__(
        self,
        monitor: "Monitor",
        nodes: List[P2Node],
        compiled: Optional[dict] = None,
    ) -> None:
        self.monitor = monitor
        self.alarms: Dict[str, List[Tuple]] = {
            name: [] for name in monitor.alarm_events
        }
        self._nodes = {node.address: node for node in nodes}
        self._compiled = compiled or {}
        self._subscriptions = []
        for node in nodes:
            self._subscribe(node)
        self.removed = False
        system = nodes[0].system if nodes else None
        self._recovery = system.recovery if system is not None else None
        if self._recovery is not None:
            self._recovery.on_restart.append(self._rewire)

    @property
    def nodes(self) -> List[P2Node]:
        """The live node at each address the monitor is installed on."""
        return list(self._nodes.values())

    def _subscribe(self, node: P2Node) -> None:
        for name in self.monitor.alarm_events:
            sink = self._make_sink(node, name)
            node.subscribe(name, sink)
            self._subscriptions.append((node, name, sink))

    def _rewire(self, address, node: P2Node, report) -> None:
        """``RecoveryManager.on_restart``: follow ``address`` to the
        node that replaced it (its old subscriptions died with it)."""
        if self.removed or address not in self._nodes:
            return
        self._nodes[address] = node
        self._subscriptions = [
            entry for entry in self._subscriptions if entry[0].address != address
        ]
        self._subscribe(node)
        old = self._compiled.get(address)
        if old is not None:
            self._compiled[address] = next(
                (c for c in node.programs if c.program is old.program), None
            )

    def _make_sink(self, node: P2Node, name: str):
        """The subscription callback for one (node, alarm) pair.

        When the node carries a telemetry plane the alarm is also
        emitted as a ``monitor.alarm`` event, so exported traces show
        detections on the same timeline as the faults that caused them.
        """
        collected = self.alarms[name].append
        if node.obs is None:
            return collected
        obs = node.obs
        monitor_name = self.monitor.name
        node_label = str(node.address)

        def sink(tup: Tuple) -> None:
            collected(tup)
            obs.event(
                "monitor.alarm",
                monitor=monitor_name,
                event=name,
                node=node_label,
            )

        return sink

    def remove(self) -> None:
        """Uninstall the monitor's rules and stop collecting alarms."""
        if self.removed:
            return
        self.removed = True
        if self._recovery is not None:
            self._recovery.on_restart.remove(self._rewire)
        for node, name, sink in self._subscriptions:
            node.unsubscribe(name, sink)
        for node in self.nodes:
            compiled = self._compiled.get(node.address)
            if compiled is not None and compiled in node.programs:
                node.uninstall(compiled)

    def count(self, name: Optional[str] = None) -> int:
        """Alarms seen, for one event name or all of them."""
        if name is not None:
            return len(self.alarms[name])
        return sum(len(v) for v in self.alarms.values())

    def clear(self) -> None:
        for sink in self.alarms.values():
            sink.clear()

    def __repr__(self) -> str:
        counts = {k: len(v) for k, v in self.alarms.items()}
        return f"<MonitorHandle {self.monitor.name} alarms={counts}>"


class Monitor:
    """A named OverLog rule set with declared alarm events."""

    def __init__(
        self,
        name: str,
        source: str,
        alarm_events: Iterable[str],
        bindings: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.name = name
        self.source = source
        self.alarm_events = list(alarm_events)
        self.bindings = dict(bindings or {})

    def program(self) -> Program:
        """Compile the monitor's rules with its parameter bindings.

        Monitors install with ``role="monitor"``, so under overload
        protection their relations shed before application DATA does.
        """
        return Program.compile(
            self.source,
            name=self.name,
            bindings=self.bindings,
            role="monitor",
        )

    def install(self, nodes: Iterable[P2Node]) -> MonitorHandle:
        """Install on every node and return the alarm-collecting handle."""
        nodes = list(nodes)
        program = self.program()
        compiled = {node.address: node.install(program) for node in nodes}
        return MonitorHandle(self, nodes, compiled)
