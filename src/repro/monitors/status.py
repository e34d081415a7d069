"""Status-telemetry fan-in — the ring benchmarks' monitoring load.

The paper's monitoring deployments all share one traffic shape: every
node periodically reports a small local observation to a collector,
which materializes the reports and periodically summarizes them.  The
per-node rules are trivial; the system-wide cost is dominated by the
*message fan-in* — thousands of tiny tuples per second converging on a
handful of collectors.  That is exactly the regime the simulator's
tick loop targets (``docs/SCALE.md``), so this monitor doubles as the
load on the ``ring_bare`` and ``ring_observed`` workloads of
``benchmarks/e2e``: real OverLog rules, real wire traffic, tunable rate.

``sr1`` samples the local clock every ``tStatus`` seconds and reports
it to the collector assigned per metric (the ``collectorOf`` table,
seeded by the deployment harness — sharding metrics across collectors
spreads the fan-in).  At the collector, ``sc1`` counts the live report
population every ``tSummary`` seconds and ``sc2`` raises ``staleReport``
for any node whose latest report is older than ``staleThresh`` — the
monitoring payoff: a node that stops reporting (crashed, partitioned,
overloaded) is flagged within one summary period.
"""

from __future__ import annotations

from repro.monitors.base import Monitor

STATUS_FLOW_SOURCE = """
materialize(collectorOf, infinity, 16, keys(2)).
materialize(status, {status_ttl}, infinity, keys(2,3)).

sr1 status@CAddr(NAddr, MetricId, T) :- periodic@NAddr(E, tStatus),
    collectorOf@NAddr(MetricId, CAddr), T := f_now().

sc1 statusPopulation@CAddr(count<*>) :- periodic@CAddr(E, tSummary),
    status@CAddr(NAddr, MetricId, T).

sc2 staleReport@CAddr(NAddr, MetricId, Age) :- periodic@CAddr(E, tSummary),
    status@CAddr(NAddr, MetricId, T), Age := f_now() - T,
    Age > staleThresh.
"""


class StatusFlowMonitor(Monitor):
    """Periodic per-node status reports fanning in to collectors.

    ``report_period`` is the per-node sampling interval (every metric a
    node carries reports on each firing); ``summary_period`` is how
    often collectors census their report table; ``stale_threshold`` is
    the report age that raises a ``staleReport`` alarm.  The report TTL
    defaults to three periods so a silenced node ages out rather than
    being counted forever.
    """

    def __init__(
        self,
        report_period: float = 0.5,
        summary_period: float = 10.0,
        stale_threshold: float = 5.0,
        report_ttl: float = None,
    ) -> None:
        if report_ttl is None:
            report_ttl = max(3.0 * report_period, stale_threshold * 2.0)
        super().__init__(
            name="status-flow",
            source=STATUS_FLOW_SOURCE.format(status_ttl=report_ttl),
            alarm_events=["staleReport"],
            bindings={
                "tStatus": report_period,
                "tSummary": summary_period,
                "staleThresh": stale_threshold,
            },
        )
