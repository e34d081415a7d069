"""The four workloads, driven through the documented public surface.

Each function runs inside a fresh subprocess (see :mod:`.runner`), takes
one :class:`Run` and fills it in.  All four are batch jobs on the
virtual clock — a closed loop with one client — so throughput is work
per wall second at the sizes in :mod:`.spec`, not a rate sweep.
"""

from __future__ import annotations

import random
import statistics
import time
from typing import Any, Callable, Dict, List

from repro import ChordNetwork, ChordParams, NodeID, Program, System, chord_program
from repro.monitors import RingProbeMonitor, StatusFlowMonitor
from repro.overload import OverloadConfig
from repro.sim.batch import DEFAULT_TICK, ExecutionConfig
from repro.store import (
    ForensicStore,
    MemoryProvider,
    StoreConfig,
    StoreProvider,
    backward_slice,
)

from .spec import RUN_SECONDS, WORKLOADS
from .trace import Recorder


class Run:
    """State of one workload run: sizes, spans, counts, checked ops."""

    def __init__(
        self, workload: str, seed: int, seconds: float, traced: bool, store_dir: str
    ) -> None:
        self.seed = seed
        self.sizes = dict(WORKLOADS[workload]["sizes"])
        self.sizes["window_sim_s"] *= seconds / RUN_SECONDS
        self.store_dir = store_dir
        self.recorder = Recorder(f"{workload}-{seed}", profile=traced)
        self.span = self.recorder.span
        #: Wall-clock epoch at which setup ended (the parent subtracts
        #: the epoch at which it spawned this process).
        self.ready_epoch = 0.0
        #: Logical events of the measured window, and the spans whose
        #: wall time they are divided by.
        self.events = 0
        self.events_spans = ("window",)
        #: End-to-end metrics and phase times only this workload has.
        self.e2e: Dict[str, float] = {}
        self.phases: Dict[str, float] = {}
        self.ops_attempted = 0
        self.failures: List[str] = []
        #: Exact per-layer counts (window deltas unless stated).
        self.counts: Dict[str, float] = {}
        #: Simulated statistics the fingerprint digests.
        self.sim_stats: Dict[str, Any] = {}

    def ready(self) -> None:
        self.ready_epoch = time.time()

    def op(self, ok: bool, what: str) -> None:
        """Count one checked operation."""
        self.ops_attempted += 1
        if not ok:
            self.failures.append(what)


def _counters(system: System) -> Dict[str, float]:
    """Cumulative public counters; window metrics are their deltas."""
    stats = system.network.stats
    kernel = system.sim.kernel
    offered = shed = deferred = 0
    for node in system.nodes.values():
        if node.overload is not None:
            for counts in node.overload.totals().values():
                offered += counts["offered"]
                shed += counts["shed"]
                deferred += counts["deferred"]
    return {
        "sim.events_dispatched": system.sim.events_processed,
        "sim.kernel_ticks": 0 if kernel is None else kernel.ticks,
        "net.messages_sent": stats.messages_sent,
        "net.messages_delivered": stats.messages_delivered,
        "net.messages_dropped": stats.messages_dropped,
        "net.bytes_sent": stats.bytes_sent,
        "runtime.rule_executions": sum(
            node.rule_executions for node in system.nodes.values()
        ),
        "obs.spans_recorded": system.telemetry.recorder.recorded,
        "overload.offered": offered,
        "overload.shed": shed,
        "overload.deferred": deferred,
    }


def _measure_window(run: Run, system: System, body: Callable[[], None]) -> Dict[str, float]:
    """Run ``body`` as the measured window; record its count deltas."""
    before, started = _counters(system), system.now
    with run.span("window", profiled=True) as span:
        body()
    after = _counters(system)
    run.phases["sim.sim_over_wall"] = (system.now - started) / (
        span["end"] - span["start"]
    )
    delta = {name: after[name] - before[name] for name in after}
    run.counts.update(delta)
    run.counts["runtime.live_tuples"] = system.total_live_tuples()
    run.counts["introspect.ring_rotations"] = sum(system.ring_rotations.values())
    kernel = system.sim.kernel
    if kernel is not None:
        run.counts["sim.max_tick_events"] = kernel.max_tick_events
    run.sim_stats["window"] = delta
    run.sim_stats["now"] = system.now
    return delta


def _cold_slices(run: Run, system: System, targets: List[dict]) -> ForensicStore:
    """Memory slices, ``close_store()``, then one cold slice per target.

    A cold slice must equal the memory slice taken before close while
    the rings still held its history; once a ring of a node it touches
    has rotated it must instead be non-truncated with at least one link
    and one hop.  Cold and warm slices must always be the same bytes.
    """
    memory = MemoryProvider({str(a): n for a, n in system.nodes.items()})
    with run.span("check"):
        expected = [
            backward_slice(memory, t["n"], t["i"]).to_json() for t in targets
        ]
        rotated = {node for node, _ring in system.ring_rotations}
    with run.span("flush", profiled=True):
        store = system.close_store()
    digests = []
    for target, want in zip(targets, expected):
        with run.span("open", profiled=True):
            reopened = ForensicStore.open(run.store_dir)
        with run.span("slice", profiled=True):
            cold = backward_slice(StoreProvider(reopened), target["n"], target["i"])
        with run.span("check"):
            got = cold.to_json()
            warm = backward_slice(StoreProvider(reopened), target["n"], target["i"])
            touched = {link["n"] for link in cold.links} | {target["n"]}
            survived = bool(
                touched & rotated
                and not cold.truncated
                and cold.links
                and cold.hops
            )
            run.op(
                got == warm.to_json() and (got == want or survived),
                f"slice of {target['n']}#{target['i']}",
            )
            digests.append((target["n"], target["i"], len(cold.links), len(cold.hops)))
    run.sim_stats["slices"] = digests
    opens, slices = run.recorder.durations("open"), run.recorder.durations("slice")
    cold = [o + s for o, s in zip(opens, slices)]
    run.e2e["slice_cold_ms_p50"] = statistics.median(cold) * 1e3
    run.e2e["store_bytes_per_event"] = store.bytes_written / store.events_appended
    run.phases.update(
        {
            "store.open_ms_p50": statistics.median(opens) * 1e3,
            "store.slice_only_ms_p50": statistics.median(slices) * 1e3,
            "store.slice_cold_ms_p90": statistics.quantiles(
                cold, n=10, method="inclusive"
            )[-1] * 1e3,
        }
    )
    run.counts.update(
        {
            "store.events_appended": store.events_appended,
            "store.records_written": store.records_written,
            "store.segments_written": store.segments_written,
            "store.compression_ratio": store.compression_ratio,
        }
    )
    run.sim_stats["store"] = {
        "events": store.events_appended,
        "records": store.records_written,
        "bytes": store.bytes_written,
    }
    return store


def _pick(rng: random.Random, system: System, tuples: list, count: int) -> List[dict]:
    """``count`` distinct ``(node, tid)`` slice targets drawn by ``rng``
    from collected tuples, through each node's tuple registry (so the
    live store is not read, and not warmed, before the cold slices)."""
    targets: List[dict] = []
    for tup in rng.sample(tuples, len(tuples)):
        if len(targets) == count:
            break
        address = tup.values[0]
        tid = system.node(address).registry.peek(tup)
        target = {"n": str(address), "i": tid}
        if tid is not None and target not in targets:
            targets.append(target)
    if len(targets) < count:
        raise RuntimeError(
            f"only {len(targets)} slice targets, need {count}: checks cannot run"
        )
    return targets


# ----------------------------------------------------------------------
# ring_bare / ring_observed


def _ring(run: Run, observed: bool) -> None:
    s = run.sizes
    rng = random.Random(run.seed)
    with run.span("compile"):
        chord_program(ChordParams())
    extra: Dict[str, Any] = {}
    if observed:
        extra = {
            "tracing": True,
            "logging": True,
            "observability": True,
            "overload": OverloadConfig(),
            "store": StoreConfig(run.store_dir),
        }
    with run.span("construct"):
        net = ChordNetwork(
            num_nodes=s["nodes"],
            seed=run.seed,
            execution=ExecutionConfig(batch_size=None, tick=DEFAULT_TICK),
            **extra,
        )
    system = net.system
    with run.span("install"):
        net.start(join_spacing=s["join_spacing_s"])
    with run.span("boot"):
        net.run_for(s["boot_sim_s"])
        # A seed whose ring needs longer keeps stabilizing (no-op when
        # the ring is already oracle-correct).
        net.wait_stable(max_time=120.0, check_interval=5.0)
    nodes = [net.node(a) for a in net.addresses]
    with run.span("monitors"):
        RingProbeMonitor(probe_period=s["probe_period_s"]).install(nodes)
        StatusFlowMonitor(report_period=s["report_period_s"]).install(nodes)
        sinks = net.addresses[: s["collectors"]]
        for i, addr in enumerate(net.addresses):
            for metric in range(s["metrics_per_node"]):
                net.node(addr).inject(
                    "collectorOf", (addr, metric, sinks[(i + metric) % len(sinks)])
                )
    with run.span("warmup"):
        net.run_for(s["warmup_sim_s"])

    bits = net.params.id_bits
    lookups = [
        (rng.choice(net.addresses), NodeID(rng.randrange(1 << bits), bits), nonce)
        for nonce in rng.sample(range(1 << 31), s["lookups"])
    ]
    answers: Dict[int, str] = {}

    def on_result(tup) -> None:
        if tup.values[4] in wanted:
            answers.setdefault(tup.values[4], tup.values[3])

    wanted = {nonce for _src, _key, nonce in lookups}
    for node in nodes:
        node.subscribe("lookupResults", on_result)
    statuses = system.collect("status", on=sinks) if observed else []
    run.ready()

    def body() -> None:
        for src, key, nonce in lookups:
            net.node(src).inject("lookup", (src, key, src, nonce))
        net.run_for(s["window_sim_s"])

    delta = _measure_window(run, system, body)
    run.events = delta["net.messages_delivered"] + delta["runtime.rule_executions"]

    with run.span("check"):
        for src, key, nonce in lookups:
            run.op(
                answers.get(nonce) == net.lookup_owner(key),
                f"lookup {key} from {src}",
            )
        run.counts["chord.lookups_ok"] = run.ops_attempted - len(run.failures)
        run.counts["chord.ring_mismatches"] = len(net.ring_errors())
        run.sim_stats["lookups"] = sorted(answers.items())
        run.sim_stats["ring_mismatches"] = run.counts["chord.ring_mismatches"]
    if observed:
        with run.span("check"):
            # status@Collector(Reporter, Metric, T): keep the received ones.
            remote = [t for t in statuses if t.values[1] != t.values[0]]
            targets = _pick(rng, system, remote, s["slices"])
        _cold_slices(run, system, targets)


def ring_bare(run: Run) -> None:
    _ring(run, observed=False)


def ring_observed(run: Run) -> None:
    _ring(run, observed=True)


# ----------------------------------------------------------------------
# forensic_chains

CHAIN_SOURCE = """
materialize(peer, infinity, 1, keys(1)).
materialize(seen, 10, 1000, keys(1,2,3)).
c1 tick@N(E) :- periodic@N(E, tTick).
c2 hop@P(N, E) :- tick@N(E), peer@N(P).
c3 seen@N(Src, E) :- hop@N(Src, E).
c4 back@Src(N, E) :- seen@N(Src, E).
c5 alarm@N(P, E) :- back@N(P, E).
"""


def forensic_chains(run: Run) -> None:
    s = run.sizes
    rng = random.Random(run.seed)
    with run.span("compile"):
        program = Program.compile(
            CHAIN_SOURCE, name="chains", bindings={"tTick": s["tick_period_s"]}
        )
    addresses = [f"n{i}:7000" for i in range(s["nodes"])]
    with run.span("construct"):
        system = System(
            seed=run.seed,
            store=StoreConfig(run.store_dir, segment_events=s["segment_events"]),
        )
        nodes = [system.add_node(a, tracing=True, logging=True) for a in addresses]
    with run.span("install"):
        for i, node in enumerate(nodes):
            node.install(program)
            node.inject("peer", (addresses[i], addresses[(i + 1) % len(addresses)]))
    alarms = system.collect("alarm")
    run.ready()

    _measure_window(run, system, lambda: system.run_for(s["window_sim_s"]))
    with run.span("check"):
        targets = _pick(rng, system, alarms, s["slices"])
    store = _cold_slices(run, system, targets)
    run.events = store.events_appended
    run.events_spans = ("window", "flush")
    run.sim_stats["alarms"] = len(alarms)

    horizon = s["window_sim_s"]
    scans = [
        {"relation": "alarm"},
        {"node": addresses[len(addresses) // 2]},
        {"t0": 0.4 * horizon, "t1": 0.6 * horizon},
        {"kind": "tt"},
        {"limit": 1000},
    ][: s["scans"]]
    with run.span("open"):
        reopened = ForensicStore.open(run.store_dir)
    returned = []
    for filters in scans:
        with run.span("scan", profiled=True):
            records = reopened.events(**filters)
        returned.append(len(records))
        run.op(
            len(records) == filters.get("limit", len(records)) and len(records) > 0,
            f"scan {filters}",
        )
    run.e2e["scan_events_per_s"] = sum(returned) / run.recorder.total("scan")
    run.sim_stats["scans"] = returned


# ----------------------------------------------------------------------
# rules_single


def rules_source(s: Dict[str, Any]) -> str:
    groups = s["dim_rows"] // s["fan_out"]
    periodic = "\n".join(
        f"pr{i} result{i}@N() :- periodic@N(E, 1)."
        for i in range(s["periodic_rules"])
    )
    return f"""
materialize(slot, 30, {s["slot_rows"]}, keys(1,2)).
materialize(dim, infinity, {s["dim_rows"]}, keys(1,2)).
{periodic}
ch1 step@N(E) :- periodic@N(E, tChain).
ch2 slot@N(K, E) :- step@N(E), K := E % {s["slot_rows"]}.
ch3 chained@N(K, E) :- slot@N(K, E).
j1 sel@N(K, G) :- chained@N(K, E), dim@N(K, G).
j2 fan@N(K, I) :- chained@N(K, E), G := K % {groups}, dim@N(I, G).
"""


class _Tally:
    """Counts deliveries of one relation."""

    def __init__(self) -> None:
        self.n = 0

    def __call__(self, _tup) -> None:
        self.n += 1


def rules_single(run: Run) -> None:
    s = run.sizes
    source = rules_source(s)
    for _ in range(s["compiles"]):
        with run.span("compile"):
            program = Program.compile(
                source, name="rules", bindings={"tChain": s["chain_period_s"]}
            )
    address = "n0:7000"
    with run.span("construct"):
        system = System(seed=run.seed)
        node = system.add_node(address)
    with run.span("install"):
        node.install(program)
        groups = s["dim_rows"] // s["fan_out"]
        for i in range(s["dim_rows"]):
            node.inject("dim", (address, i, i % groups))
    tallies = {name: _Tally() for name in ("step", "chained", "sel", "fan")}
    for name, tally in tallies.items():
        node.subscribe(name, tally)
    with run.span("warmup"):
        system.run_for(s["warmup_sim_s"])
    before = {name: tally.n for name, tally in tallies.items()}
    run.ready()

    delta = _measure_window(run, system, lambda: system.run_for(s["window_sim_s"]))
    run.events = delta["runtime.rule_executions"]

    with run.span("check"):
        seen = {name: tallies[name].n - before[name] for name in tallies}
        # A periodic with period p fires exactly W/p times in any window
        # of W seconds; every step replaces a slot row, which derives one
        # chained tuple, which matches one dim row by key and fan_out
        # rows by group.
        steps = round(s["window_sim_s"] / s["chain_period_s"])
        run.op(seen["step"] == steps, f"step {seen['step']} != {steps}")
        run.op(seen["chained"] == steps, f"chained {seen['chained']} != {steps}")
        run.op(seen["sel"] == steps, f"sel {seen['sel']} != {steps}")
        run.op(
            seen["fan"] == steps * s["fan_out"],
            f"fan {seen['fan']} != {steps * s['fan_out']}",
        )
        run.sim_stats["derived"] = seen


WORKLOAD_FUNCS: Dict[str, Callable[[Run], None]] = {
    "ring_bare": ring_bare,
    "ring_observed": ring_observed,
    "forensic_chains": forensic_chains,
    "rules_single": rules_single,
}


def phase_metrics(run: Run) -> Dict[str, float]:
    """Phase times from the run's spans (absent when the phase is)."""
    rec = run.recorder
    out = dict(run.phases)
    spans = {
        "runtime.install_s": "install",
        "sim.boot_s": "boot",
        "monitors.install_s": "monitors",
        "sim.window_s": "window",
        "store.flush_s": "flush",
        "store.scan_s": "scan",
    }
    for metric, span in spans.items():
        if rec.durations(span):
            out[metric] = rec.total(span)
    out["overlog.compile_s"] = statistics.median(rec.durations("compile"))
    return out
