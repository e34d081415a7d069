"""Measurement windows over a running system.

The paper's §4 reports, per configuration: CPU utilization (%), process
memory (MB), transmitted messages, and live tuples.  :class:`Meter`
measures the simulated equivalents over a window of virtual time:

- **cpu_percent** — work-model busy-seconds accumulated in the window
  divided by the window length (×100): the simulated analogue of OS CPU%
  (see :mod:`repro.runtime.work` for the substitution rationale);
- **tx_messages** — network messages sent during the window (per node
  or aggregate, matching Figures 6/7's "Tx messages");
- **live_tuples** — mean over periodic samples of the node's total
  table occupancy (the paper plots exactly this series);
- **memory_bytes** — mean over samples of estimated tuple bytes (our
  proxy for process memory, which in P2 is tuple-dominated).

Every number is read through the system's telemetry registry
(:class:`repro.obs.metrics.MetricsRegistry`), whose callback adapters
expose the network and work-model counters — the meter never reaches
into ``NetworkStats`` or a node's work model directly, so it measures
exactly what the exporters export.

Usage::

    meter = Meter(system, addresses=["n20:10020"])
    meter.start()
    system.run_for(60.0)
    result = meter.stop()
    print(result.cpu_percent, result.live_tuples)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import ReproError

#: Seconds between live-tuple and memory samples.
SAMPLE_PERIOD = 1.0


@dataclass
class MetricsSample:
    """One measurement window's results (averaged over the node set)."""

    elapsed: float
    cpu_percent: float
    tx_messages: int
    live_tuples: float
    memory_bytes: float
    # Bytes of tuples *delivered* during the window: the transient
    # allocation churn behind the paper's process-memory growth for
    # rules whose outputs are events rather than stored state.
    churn_bytes: int = 0
    # Transport-layer overhead in the window: retransmissions performed
    # by the reliable transport and the per-reason drop breakdown (see
    # ``NetworkStats.drop_reasons``) — campaign verdicts read these
    # rather than guessing from the aggregate drop count.
    tx_retransmits: int = 0
    drop_reasons: Dict[str, int] = field(default_factory=dict)
    per_node_cpu: Dict[str, float] = field(default_factory=dict)
    per_node_tx: Dict[str, int] = field(default_factory=dict)
    # Work-model operation counts accumulated during the window, summed
    # over the measured node set (e.g. ``ops["join_probe"]`` = rows
    # examined by scanning joins, ``ops["join_indexed"]`` = rows examined
    # through hash-index buckets — the benchmarks compare the two to
    # quantify the index win).
    ops: Dict[str, int] = field(default_factory=dict)

    @property
    def memory_mb(self) -> float:
        return self.memory_bytes / (1024.0 * 1024.0)

    @property
    def join_rows_examined(self) -> int:
        """Rows examined by all join probes (scanned + indexed)."""
        return self.ops.get("join_probe", 0) + self.ops.get("join_indexed", 0)


class Meter:
    """Windowed measurement of a node subset (default: all nodes)."""

    def __init__(self, system, addresses: Optional[List[str]] = None) -> None:
        self._system = system
        self._addresses = addresses
        self._running = False
        self._timer = None
        self._t0 = 0.0
        self._busy0: Dict[str, float] = {}
        self._tx0: Dict[str, int] = {}
        self._retrans0 = 0
        self._drops0: Dict[str, int] = {}
        self._churn0: Dict[str, int] = {}
        self._ops0: Dict[str, Dict[str, int]] = {}
        self._tuple_samples: List[float] = []
        self._byte_samples: List[float] = []

    def _targets(self) -> List[str]:
        if self._addresses is not None:
            return list(self._addresses)
        return list(self._system.nodes)

    @property
    def _registry(self):
        return self._system.telemetry.metrics

    def start(self) -> None:
        if self._running:
            raise ReproError("meter already running")
        self._running = True
        self._t0 = self._system.sim.now
        self._tuple_samples = []
        self._byte_samples = []
        reg = self._registry
        self._retrans0 = reg.value(
            "net_counters_total", ("messages_retransmitted",)
        )
        self._drops0 = {
            key[0]: count
            for key, count in reg.snapshot("net_dropped_total").items()
        }
        self._churn0 = {}
        busy = reg.snapshot("node_busy_seconds")
        sent = reg.snapshot("net_sent_total")
        churn = reg.snapshot("node_bytes_delivered_total")
        ops = reg.snapshot("node_work_ops_total")
        for address in self._targets():
            key = (address,)
            self._busy0[address] = busy.get(key, 0.0)
            self._tx0[address] = sent.get(key, 0)
            self._churn0[address] = churn.get(key, 0)
            self._ops0[address] = {
                op: count
                for (node, op), count in ops.items()
                if node == address
            }
        self._sample()
        self._timer = self._system.sim.every(SAMPLE_PERIOD, self._sample)

    def _sample(self) -> None:
        reg = self._registry
        tuples = reg.snapshot("node_live_tuples")
        memory = reg.snapshot("node_memory_bytes")
        targets = self._targets()
        self._tuple_samples.append(
            sum(tuples.get((a,), 0) for a in targets)
        )
        self._byte_samples.append(
            sum(memory.get((a,), 0) for a in targets)
        )

    def stop(self) -> MetricsSample:
        if not self._running:
            raise ReproError("meter not running")
        self._running = False
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        self._sample()
        elapsed = max(self._system.sim.now - self._t0, 1e-9)
        reg = self._registry
        busy_now = reg.snapshot("node_busy_seconds")
        sent_now = reg.snapshot("net_sent_total")
        churn_now = reg.snapshot("node_bytes_delivered_total")
        ops_now = reg.snapshot("node_work_ops_total")
        per_node_cpu: Dict[str, float] = {}
        per_node_tx: Dict[str, int] = {}
        for address in self._targets():
            key = (address,)
            busy = busy_now.get(key, 0.0) - self._busy0[address]
            per_node_cpu[address] = 100.0 * busy / elapsed
            per_node_tx[address] = (
                sent_now.get(key, 0) - self._tx0[address]
            )
        churn = sum(
            churn_now.get((address,), 0) - self._churn0[address]
            for address in self._targets()
        )
        targets = set(self._targets())
        ops: Dict[str, int] = {}
        for (node, op), count in ops_now.items():
            if node not in targets:
                continue
            delta = count - self._ops0.get(node, {}).get(op, 0)
            if delta:
                ops[op] = ops.get(op, 0) + delta
        drop_reasons: Dict[str, int] = {}
        for (reason,), count in reg.snapshot("net_dropped_total").items():
            delta = count - self._drops0.get(reason, 0)
            if delta:
                drop_reasons[reason] = delta
        n = max(len(per_node_cpu), 1)
        return MetricsSample(
            elapsed=elapsed,
            cpu_percent=sum(per_node_cpu.values()) / n,
            tx_messages=sum(per_node_tx.values()),
            live_tuples=sum(self._tuple_samples) / len(self._tuple_samples) / n,
            memory_bytes=sum(self._byte_samples) / len(self._byte_samples) / n,
            churn_bytes=churn,
            tx_retransmits=int(
                reg.value("net_counters_total", ("messages_retransmitted",))
                - self._retrans0
            ),
            drop_reasons=drop_reasons,
            per_node_cpu=per_node_cpu,
            per_node_tx=per_node_tx,
            ops=ops,
        )
