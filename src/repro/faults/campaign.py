"""Randomized fault campaigns: monitors under adversarial load.

A :class:`FaultCampaign` samples a randomized
:class:`~repro.faults.schedule.FaultSchedule` from a seeded RNG, runs a
Chord ring with the paper's ring and oscillation monitors attached,
drives the schedule through its fault window, and emits a structured
:class:`CampaignVerdict`:

- **converged** — the ring is oracle-correct after the recovery phase;
- **sound** — every alarm raised during the fault window cleared
  within ``CLEAR_GRACE`` seconds of the last heal (no stuck alarms);
- the full alarm timeline, the applied schedule in reproducible text
  form, and the network's transport counters (retransmissions,
  per-reason drops, suppressed duplicates).

Same seed + same config ⇒ byte-for-byte identical verdict
(:meth:`CampaignVerdict.fingerprint`), which is what the regression
tests pin and what ``python -m repro faults --seeds ... --fingerprints``
prints for the CI smoke job.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.chord.harness import ChordNetwork
from repro.errors import ReproError
from repro.faults.injector import FaultInjector
from repro.faults.schedule import FaultSchedule
from repro.monitors.oscillation import OscillationMonitor
from repro.monitors.ring import RingProbeMonitor
from repro.net.network import ReliableConfig
from repro.overload.controller import OverloadConfig
from repro.overload.policy import CLASSES
from repro.sim.batch import ExecutionConfig
from repro.store.store import StoreConfig


#: Fault windows start up to this far into the campaign phase.
FAULT_LEAD = 10.0
#: Most reversible faults sampled per campaign.
MAX_FAULTS = 3
#: Alarms must stop within this many seconds after the last heal.
#: The bound is set by the monitors themselves: the oscillation
#: detector's ``repeatOscill`` is a windowed aggregate over a 120 s
#: ``oscill`` table checked every ``tOscCheck``, so genuinely
#: transient oscillation near heal time keeps the aggregate firing
#: for up to ~155 s afterwards — that is correct monitor behaviour,
#: not a stuck alarm.
CLEAR_GRACE = 200.0
#: Periods of the ring-probe and oscillation monitors under test.
RING_PROBE_PERIOD = 15.0
OSCILLATION_CHECK = 20.0
#: Most crash–restart cycles per churn campaign (distinct nodes).
MAX_RESTARTS = 2
#: Sampled downtime bounds for churn windows (seconds).
MIN_DOWN = 8.0
MAX_DOWN = 45.0
#: Checkpoint period for churn-mode durable protection.
CHECKPOINT_INTERVAL = 20.0
#: Most nodes stormed per storm campaign.
MAX_STORMS = 2
#: Storm arrival-rate bounds (msgs / virtual second).  With the 2 ms
#: service time of :meth:`CampaignConfig.storm_overload` the node
#: drains 500 msg/s, so these are ~1.4–2.4x saturation.
STORM_RATE_MIN = 700.0
STORM_RATE_MAX = 1200.0
#: Storm duration bounds (seconds).
STORM_DURATION_MIN = 4.0
STORM_DURATION_MAX = 10.0
#: Post-heal Chord lookups asserted in the storm verdict.
STORM_LOOKUPS = 3


@dataclass
class CampaignConfig:
    """Knobs of one campaign run (defaults fit an 8-node smoke ring)."""

    num_nodes: int = 8
    transport: str = "reliable"
    stabilize_time: float = 240.0
    #: Longest fault window (windows are sampled within it).
    fault_duration: float = 60.0
    #: Observation window after the last heal; must exceed
    #: ``CLEAR_GRACE`` so late alarms are actually observable.
    recovery_time: float = 260.0
    #: Churn mode: protect every node with durable checkpoint+WAL state
    #: (:mod:`repro.recovery`) and add sampled crash→restart windows to
    #: the schedule.  Restarted nodes replay their durable image and
    #: re-join the ring; the verdict records each recovery outcome.
    churn: bool = False
    #: Storm mode: replace the reversible-fault menu with randomized
    #: ``traffic_storm`` bursts (plus sampled ``slow_node`` windows)
    #: against overload-protected nodes.  The verdict gains an
    #: ``overload`` summary — per-class offered/admitted/shed/deferred,
    #: BUSY nacks, queue peaks, the priority invariant, and post-heal
    #: lookup outcomes — and ``passed`` requires the invariant to hold.
    storm: bool = False
    #: False runs the storm control arm: unbounded queues, shedding
    #: off — the verdict's queue peaks demonstrate unbounded growth.
    shedding: bool = True
    #: Probability each storm is accompanied by a slow_node window.
    slow_node_prob: float = 0.5
    #: Export telemetry artifacts here after the run (trace + JSONL +
    #: Prometheus, prefix ``campaign_seed<seed>`` plus the mode suffix
    #: of :meth:`FaultCampaign.leaf`), with the telemetry plane enabled
    #: (spans, flight recorder, fault/alarm events); the verdict embeds
    #: the JSONL path so a failure can be replayed in Perfetto or
    #: ``python -m repro obs summarize``.
    artifact_dir: Optional[str] = None
    #: Execution mode (:mod:`repro.sim.batch`): None keeps the original
    #: continuous-time per-tuple loop; an :class:`ExecutionConfig`
    #: selects tick mode, and the batch-vs-per-tuple differential
    #: battery pins that the verdict fingerprint is identical across
    #: batch sizes for a given tick.
    execution: Optional[ExecutionConfig] = None
    #: Run every node traced + logged with a durable forensic store
    #: (:mod:`repro.store`) spilling under ``<store_dir>/seed<seed>``
    #: plus the mode suffix of :meth:`FaultCampaign.leaf`.
    #: The verdict embeds the manifest path, segment names, and totals —
    #: in the fingerprint, the same way the telemetry JSONL pointer is —
    #: so a failing seed's history can be sliced offline with
    #: ``python -m repro store slice``.
    store_dir: Optional[str] = None

    def reliable_config(self) -> ReliableConfig:
        if self.storm:
            # Bounded transport queues in storm mode: a capped sender
            # window + backlog (overflow is a sender-visible drop) and a
            # capped receiver reorder buffer, so a BUSY-induced sequence
            # gap cannot park an unbounded pile of admitted frames that
            # would later dump into the mailbox all at once.
            return ReliableConfig(window=64, backlog=512, reorder_cap=64)
        return ReliableConfig()

    def storm_overload(self) -> OverloadConfig:
        """The per-node overload config a storm campaign runs with."""
        if self.shedding:
            return OverloadConfig(service_time=0.002)
        # Control arm: same service rate, but unbounded queues and no
        # shedding — depth peaks show what the protection prevents.
        return OverloadConfig(
            mailbox_capacity=None,
            strand_queue_capacity=None,
            service_time=0.002,
            shedding=False,
        )


@dataclass
class CampaignVerdict:
    """Everything a campaign observed, reproducible from its seed."""

    seed: int
    transport: str
    stabilized: bool
    converged: bool
    sound: bool
    heal_time: float
    last_alarm_time: Optional[float]
    alarm_counts: Dict[str, int]
    alarms: List[Tuple[float, str, str]] = field(default_factory=list)
    schedule: List[str] = field(default_factory=list)
    counters: Dict[str, int] = field(default_factory=dict)
    drop_reasons: Dict[str, int] = field(default_factory=dict)
    #: Recovery outcomes in churn mode: one ``(time, node, replayed,
    #: lapsed)`` entry per crash–restart performed.
    restarts: List[Tuple[float, str, int, int]] = field(default_factory=list)
    #: Storm-mode overload summary (None outside storm mode): per-class
    #: shed accounting aggregated over nodes, transport backpressure
    #: counters, queue depth peaks, the priority invariant, and
    #: post-heal lookup outcomes.
    overload: Optional[Dict] = None
    #: Path of the exported telemetry JSONL artifact (None when the
    #: campaign ran without ``artifact_dir``).
    artifact: Optional[str] = None
    #: Forensic-store pointers (None without ``store_dir``): manifest
    #: path, segment file names, and write totals, fingerprint-embedded
    #: like ``artifact``.
    store: Optional[Dict] = None

    @property
    def passed(self) -> bool:
        ok = self.stabilized and self.converged and self.sound
        if self.overload is not None:
            ok = (
                ok
                and self.overload["invariant_ok"]
                and all(r[1] for r in self.overload["lookups"])
            )
        return ok

    def fingerprint(self) -> str:
        """Canonical JSON of the whole verdict — byte-for-byte stable
        across runs of the same seed/config."""
        return json.dumps(
            {
                "seed": self.seed,
                "transport": self.transport,
                "stabilized": self.stabilized,
                "converged": self.converged,
                "sound": self.sound,
                "heal_time": round(self.heal_time, 6),
                "last_alarm_time": (
                    None
                    if self.last_alarm_time is None
                    else round(self.last_alarm_time, 6)
                ),
                "alarm_counts": self.alarm_counts,
                "alarms": [
                    [round(t, 6), event, node]
                    for t, event, node in self.alarms
                ],
                "schedule": self.schedule,
                "counters": self.counters,
                "drop_reasons": self.drop_reasons,
                "restarts": [
                    [round(t, 6), node, replayed, lapsed]
                    for t, node, replayed, lapsed in self.restarts
                ],
                "overload": self.overload,
                "artifact": self.artifact,
                "store": self.store,
            },
            sort_keys=True,
            separators=(",", ":"),
        )


class FaultCampaign:
    """One seeded randomized campaign over a monitored Chord ring."""

    #: Reversible fault kinds the sampler draws from (weights are the
    #: repetition counts in this list).
    FAULT_MENU = [
        "partition",
        "partition",
        "isolate",
        "loss",
        "link_loss",
        "duplicate",
        "reorder",
    ]

    def __init__(
        self, seed: int, config: Optional[CampaignConfig] = None
    ) -> None:
        self.seed = seed
        self.config = config if config is not None else CampaignConfig()
        if not self.config.storm and self.config.num_nodes < 2:
            raise ReproError(
                "num_nodes must be at least 2 (the fault menu partitions "
                f"pairs of nodes), got {self.config.num_nodes!r}"
            )
        # Storms outlive their at() entries by their duration argument;
        # sampling records the true quiet time here so heal_time (and
        # the soundness window) starts after the last storm ends.
        self._storm_end = 0.0

    # ------------------------------------------------------------------
    # Schedule sampling

    def sample_schedule(self, addresses: List[str]) -> FaultSchedule:
        """Draw a randomized, fully-healed fault schedule.

        Times are relative (the runner arms the schedule at the end of
        stabilization).  Every sampled fault is a window, so by
        ``schedule.end_time`` the system is fault-free by construction
        — the precondition of the soundness verdict.
        """
        config = self.config
        rng = random.Random((self.seed * 0x9E3779B1 + 0xFA01) & 0xFFFFFFFF)
        schedule = FaultSchedule()
        if config.storm:
            return self._sample_storms(rng, schedule, addresses)
        for _ in range(rng.randint(1, MAX_FAULTS)):
            start = rng.uniform(1.0, FAULT_LEAD)
            end = start + rng.uniform(
                0.3 * config.fault_duration, config.fault_duration
            )
            kind = rng.choice(self.FAULT_MENU)
            if kind == "partition":
                a, b = rng.sample(addresses, 2)
                schedule.window(start, end, "partition", a, b)
            elif kind == "isolate":
                schedule.window(
                    start, end, "isolate", rng.choice(addresses)
                )
            elif kind == "loss":
                schedule.window(
                    start, end, "loss", round(rng.uniform(0.05, 0.3), 3)
                )
            elif kind == "link_loss":
                a, b = rng.sample(addresses, 2)
                schedule.window(
                    start,
                    end,
                    "link_loss",
                    a,
                    b,
                    round(rng.uniform(0.2, 0.6), 3),
                )
            elif kind == "duplicate":
                schedule.window(
                    start, end, "duplicate", round(rng.uniform(0.05, 0.3), 3)
                )
            elif kind == "reorder":
                schedule.window(
                    start, end, "reorder", round(rng.uniform(0.05, 0.3), 3)
                )
        if config.churn:
            # Crash→restart windows on distinct nodes: the window's
            # inverse (crash → restart) recovers each node from its
            # durable image after the sampled downtime.
            count = rng.randint(1, MAX_RESTARTS)
            count = min(count, max(1, len(addresses) - 1))
            for addr in rng.sample(sorted(addresses), count):
                start = rng.uniform(1.0, FAULT_LEAD)
                down = rng.uniform(MIN_DOWN, MAX_DOWN)
                schedule.window(start, start + down, "crash", addr)
        return schedule

    def _sample_storms(
        self,
        rng: random.Random,
        schedule: FaultSchedule,
        addresses: List[str],
    ) -> FaultSchedule:
        """Storm-mode sampling: traffic bursts + slow-node windows only.

        The ordinary fault menu is deliberately excluded — the storm
        verdict isolates overload behaviour from partition/loss noise.
        """
        count = min(rng.randint(1, MAX_STORMS), len(addresses))
        self._storm_end = 0.0
        for addr in rng.sample(sorted(addresses), count):
            start = rng.uniform(1.0, FAULT_LEAD)
            rate = round(rng.uniform(STORM_RATE_MIN, STORM_RATE_MAX), 1)
            duration = round(
                rng.uniform(STORM_DURATION_MIN, STORM_DURATION_MAX), 2
            )
            schedule.at(start, "traffic_storm", addr, rate, duration)
            self._storm_end = max(self._storm_end, start + duration)
            if rng.random() < self.config.slow_node_prob:
                slow_start = round(rng.uniform(start, start + duration), 2)
                slow_len = round(rng.uniform(2.0, duration), 2)
                schedule.window(
                    slow_start,
                    slow_start + slow_len,
                    "slow_node",
                    addr,
                    round(rng.uniform(1.5, 3.0), 2),
                )
                self._storm_end = max(
                    self._storm_end, slow_start + slow_len
                )
        return schedule

    # ------------------------------------------------------------------
    # Running

    def leaf(self, control: bool = False) -> str:
        """``seed<N>`` plus one suffix per mode — what names this run's
        store directory and telemetry artifacts, so campaigns of every
        mode can share one output directory."""
        config = self.config
        leaf = f"seed{self.seed}"
        if config.churn:
            leaf += "_churn"
        if config.storm:
            leaf += "_storm" if config.shedding else "_storm_noshed"
        if control:
            leaf += "_control"
        return leaf

    def run(self, control: bool = False) -> CampaignVerdict:
        """Run the campaign; with ``control=True`` no faults are
        injected (the zero-alarm baseline the soundness tests compare
        against)."""
        config = self.config
        store_config = None
        if config.store_dir:
            store_config = StoreConfig(
                directory=os.path.join(config.store_dir, self.leaf(control))
            )
        net = ChordNetwork(
            num_nodes=config.num_nodes,
            seed=self.seed,
            transport=config.transport,
            reliable=config.reliable_config(),
            observability=bool(config.artifact_dir),
            overload=config.storm_overload() if config.storm else None,
            execution=config.execution,
            store=store_config,
            tracing=store_config is not None,
            logging=store_config is not None,
        )
        net.start()
        stabilized = net.wait_stable(max_time=config.stabilize_time)

        # Churn mode: durable protection attaches after stabilization
        # (the baseline checkpoint captures the stable ring), in control
        # runs too so both arms carry identical durability work.
        recovery = None
        if config.churn:
            recovery = net.enable_recovery(
                checkpoint_interval=CHECKPOINT_INTERVAL
            )

        nodes = [net.node(a) for a in net.live_addresses()]
        ring_monitor = RingProbeMonitor(probe_period=RING_PROBE_PERIOD)
        osc_monitor = OscillationMonitor(check_period=OSCILLATION_CHECK)
        handles = [ring_monitor.install(nodes), osc_monitor.install(nodes)]

        # Timestamped alarm timeline (MonitorHandle keeps only tuples).
        alarms: List[Tuple[float, str, str]] = []
        events = [
            name
            for handle in handles
            for name in handle.monitor.alarm_events
        ]
        sim = net.system.sim
        for node in nodes:
            for event in events:
                node.subscribe(
                    event,
                    lambda tup, _e=event, _n=node.address: alarms.append(
                        (sim.now, _e, _n)
                    ),
                )

        # Crash wipes a node's subscriptions (P2Node.stop detaches all
        # callbacks), so each restart must re-attach the alarm taps on
        # the fresh node — and gets recorded as a recovery outcome.
        recoveries: List[Tuple[float, str, int, int]] = []
        if recovery is not None:

            def resubscribe(addr, new_node, report):
                recoveries.append(
                    (sim.now, addr, report.replayed, report.lapsed)
                )
                for event in events:
                    new_node.subscribe(
                        event,
                        lambda tup, _e=event, _n=addr: alarms.append(
                            (sim.now, _e, _n)
                        ),
                    )

            recovery.on_restart.append(resubscribe)

        armed_at = net.system.now
        if control:
            schedule = FaultSchedule()
        else:
            schedule = self.sample_schedule(net.live_addresses())
            injector = FaultInjector(net.system)
            schedule.apply(injector, offset=armed_at)
        # Storms run past their at() entry for their sampled duration,
        # so quiet time is the later of the last entry and the last
        # storm's end.
        quiet_after = max(schedule.end_time, self._storm_end)
        heal_time = armed_at + quiet_after

        # Chord's failure recovery: a node evicted during a long
        # isolation must re-join through the landmark once the network
        # heals (its neighbors dropped it and its own successor
        # expired).  No-op for nodes that kept a successor.
        if not control:
            sim.schedule_at(
                heal_time + 10.0,
                lambda: [
                    net.ensure_joined(a) for a in net.live_addresses()
                ],
            )
            if config.storm:
                # A storm-silenced node can still hold a stale successor
                # at heal+10 (so the first pass no-ops on it) that only
                # expires with the soft-state horizon; sweep again after
                # it so the node re-joins within the recovery window.
                sim.schedule_at(
                    heal_time + 60.0,
                    lambda: [
                        net.ensure_joined(a) for a in net.live_addresses()
                    ],
                )

        net.run_for(quiet_after + config.recovery_time)
        converged = net.wait_stable(max_time=60.0)

        # Storm mode: post-heal lookups prove the ring still routes
        # after overload — DATA (lookup traffic) survived the shedding.
        overload_summary = None
        if config.storm:
            lookups: List[List] = []
            live = sorted(net.live_addresses())
            src = live[0]
            for addr in live[:STORM_LOOKUPS]:
                key = net.ids[addr]
                result = net.lookup(src, key, timeout=20.0)
                owner = net.lookup_owner(key)
                ok = result is not None and (
                    owner is None or result.values[3] == owner
                )
                lookups.append([addr, bool(ok)])
            overload_summary = self._overload_summary(net, lookups)

        stats = net.system.network.stats
        alarm_counts: Dict[str, int] = {}
        for _, event, _ in alarms:
            alarm_counts[event] = alarm_counts.get(event, 0) + 1
        last_alarm = max((t for t, _, _ in alarms), default=None)
        sound = (
            last_alarm is None
            or last_alarm <= heal_time + CLEAR_GRACE
        )
        if control:
            sound = not alarms
        artifact = None
        if config.artifact_dir:
            paths = net.system.export_telemetry(
                config.artifact_dir,
                prefix=f"campaign_{self.leaf(control)}",
                meta={
                    "seed": self.seed,
                    "transport": config.transport,
                    "nodes": config.num_nodes,
                    "control": control,
                },
            )
            artifact = paths["jsonl"]
        store_info = None
        if store_config is not None:
            store = net.system.close_store()
            store_info = {
                "manifest": store.manifest_path(),
                "segments": store.segment_paths(),
                "records": store.records_written,
                "events": store.events_appended,
                "bytes": store.bytes_written,
                "ring_rotations": sum(
                    store.ring_rotations.values()
                ),
            }
        return CampaignVerdict(
            seed=self.seed,
            transport=config.transport,
            stabilized=stabilized,
            converged=converged,
            sound=sound,
            heal_time=heal_time,
            last_alarm_time=last_alarm,
            alarm_counts=alarm_counts,
            alarms=alarms,
            schedule=schedule.describe(),
            restarts=recoveries,
            counters={
                "messages_sent": stats.messages_sent,
                "messages_delivered": stats.messages_delivered,
                "messages_dropped": stats.messages_dropped,
                "messages_retransmitted": stats.messages_retransmitted,
                "duplicates_suppressed": stats.duplicates_suppressed,
                "send_failures": stats.send_failures,
                "gap_skips": stats.gap_skips,
                "acks_sent": stats.acks_sent,
                "busy_nacks": stats.busy_nacks,
                "backlogged": stats.backlogged,
                "held_overflow": stats.held_overflow,
            },
            drop_reasons=dict(stats.drop_reasons),
            overload=overload_summary,
            artifact=artifact,
            store=store_info,
        )

    def _overload_summary(self, net: ChordNetwork, lookups: List[List]) -> Dict:
        """Aggregate every node's overload accounting into one
        fingerprint-stable dict (sorted keys, ints and bools only)."""
        classes = {
            cls: {"offered": 0, "admitted": 0, "shed": 0, "deferred": 0}
            for cls in CLASSES
        }
        shed_reasons: Dict[str, int] = {}
        mailbox_peak = 0
        strand_peak = 0
        transitions = 0
        invariant = True
        for addr in sorted(net.system.nodes):
            ctrl = net.system.nodes[addr].overload
            if ctrl is None:
                continue
            for cls, counts in ctrl.counts.items():
                agg = classes[cls]
                agg["offered"] += counts.offered
                agg["admitted"] += counts.admitted
                agg["shed"] += counts.shed
                agg["deferred"] += counts.deferred
                for reason, n in counts.shed_reasons.items():
                    shed_reasons[reason] = shed_reasons.get(reason, 0) + n
            mailbox_peak = max(mailbox_peak, ctrl.mailbox.depth_peak)
            strand_peak = max(strand_peak, ctrl.strand_state.depth_peak)
            transitions += (
                ctrl.mailbox.state.transitions
                + ctrl.strand_state.transitions
            )
            invariant = invariant and ctrl.invariant_ok()
        return {
            "classes": classes,
            "shed_reasons": {
                reason: shed_reasons[reason]
                for reason in sorted(shed_reasons)
            },
            "mailbox_peak": mailbox_peak,
            "strand_peak": strand_peak,
            "transitions": transitions,
            "shedding": self.config.shedding,
            "invariant_ok": invariant,
            "lookups": lookups,
        }


def register(commands) -> None:
    """Add ``faults`` to the ``python -m repro`` parser."""
    parser = commands.add_parser(
        "faults", help="run fixed-seed randomized fault campaigns"
    )
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    parser.add_argument("--nodes", type=int, default=8)
    parser.add_argument(
        "--transport", choices=["udp", "reliable"], default="reliable"
    )
    parser.add_argument(
        "--control", action="store_true", help="run without faults"
    )
    parser.add_argument(
        "--churn",
        action="store_true",
        help="enable durable recovery and add crash-restart windows",
    )
    parser.add_argument(
        "--storm",
        action="store_true",
        help="overload mode: traffic storms + slow nodes against "
        "overload-protected nodes; asserts the priority-shedding "
        "invariant and post-heal lookups",
    )
    parser.add_argument(
        "--no-shedding",
        action="store_true",
        help="storm control arm: unbounded observe-only queues "
        "(demonstrates the growth shedding prevents)",
    )
    parser.add_argument(
        "--verdicts",
        metavar="FILE",
        default=None,
        help="append each seed's canonical verdict JSON to FILE "
        "(one line per seed, for CI artifact upload)",
    )
    parser.add_argument(
        "--fingerprints",
        action="store_true",
        help="print the canonical verdict JSON per seed",
    )
    parser.add_argument(
        "--artifacts",
        metavar="DIR",
        default=None,
        help="run with telemetry enabled and export trace/JSONL/Prometheus "
        "artifacts per seed into DIR",
    )
    parser.add_argument(
        "--store",
        metavar="DIR",
        default=None,
        help="trace + log every node into a durable forensic store under "
        "DIR/seed<seed>[_mode]; the verdict fingerprint embeds the "
        "manifest and segment pointers (slice offline with "
        "python -m repro store slice)",
    )
    parser.set_defaults(run=run_campaigns)


def run_campaigns(args) -> int:
    """Run one campaign per seed and print the verdicts; 1 if any seed
    FAILs.  The nightly ``campaign-smoke`` CI job runs::

        python -m repro faults --seeds 0 1 2
    """
    failures = 0
    verdict_lines = []
    for seed in args.seeds:
        config = CampaignConfig(
            num_nodes=args.nodes,
            transport=args.transport,
            artifact_dir=args.artifacts,
            store_dir=args.store,
            churn=args.churn,
            storm=args.storm,
            shedding=not args.no_shedding,
        )
        verdict = FaultCampaign(seed, config).run(control=args.control)
        status = "PASS" if verdict.passed else "FAIL"
        print(
            f"[{status}] seed={seed} converged={verdict.converged} "
            f"sound={verdict.sound} alarms={verdict.alarm_counts} "
            f"retransmits={verdict.counters['messages_retransmitted']} "
            f"drops={verdict.drop_reasons}"
        )
        for line in verdict.schedule:
            print(f"         {line}")
        if verdict.overload is not None:
            ov = verdict.overload
            shed = {
                cls: ov["classes"][cls]["shed"] for cls in ov["classes"]
            }
            print(
                f"         overload: invariant_ok={ov['invariant_ok']} "
                f"shed={shed} deferred="
                f"{sum(c['deferred'] for c in ov['classes'].values())} "
                f"mailbox_peak={ov['mailbox_peak']} "
                f"lookups={ov['lookups']}"
            )
        if verdict.restarts:
            for t, node, replayed, lapsed in verdict.restarts:
                print(
                    f"         restart {node} at {t:g}: "
                    f"replayed={replayed} lapsed={lapsed}"
                )
        if verdict.artifact:
            print(f"         artifact: {verdict.artifact}")
        if verdict.store:
            print(
                f"         store: {verdict.store['manifest']} "
                f"segments={len(verdict.store['segments'])} "
                f"events={verdict.store['events']} "
                f"ring_rotations={verdict.store['ring_rotations']}"
            )
        if args.fingerprints:
            print(verdict.fingerprint())
        if args.verdicts:
            verdict_lines.append(verdict.fingerprint())
        if not verdict.passed:
            failures += 1
    if args.verdicts:
        with open(args.verdicts, "a") as handle:
            for line in verdict_lines:
                handle.write(line + "\n")
    return 1 if failures else 0
