"""Execution profiling (§3.2): walking traces backwards on-line."""

import pytest

from repro.chord import ChordNetwork
from repro.monitors import ConsistencyProbeMonitor, ExecutionProfiler


@pytest.fixture(scope="module")
def traced_net():
    net = ChordNetwork(num_nodes=6, seed=5, tracing=True)
    net.start()
    assert net.wait_stable(max_time=200.0)
    nodes = [net.node(a) for a in net.live_addresses()]
    ConsistencyProbeMonitor(probe_period=15.0, tally_period=10.0).install(
        nodes
    )
    profiler = ExecutionProfiler(stop_rule="cs2")
    handle = profiler.install(nodes)
    results = net.system.collect("lookupResults")
    net.run_for(40.0)
    assert results
    return net, profiler, handle, results


def profile_one(net, profiler, handle, results, min_hops=0):
    """Profile the newest response; returns its report tuple."""
    before = len(handle.alarms["report"])
    tup = results[-1]
    node = net.node(tup.values[0])
    profiler.profile_tuple(node, tup)
    net.run_for(5.0)
    reports = handle.alarms["report"][before:]
    assert reports, "profiler produced no report"
    return reports[-1]


def test_report_produced(traced_net):
    net, profiler, handle, results = traced_net
    report = profile_one(net, profiler, handle, results)
    # (node, tupleID, RuleT, NetT, LocalT)
    assert len(report.values) == 5


def test_time_bins_are_sane(traced_net):
    net, profiler, handle, results = traced_net
    report = profile_one(net, profiler, handle, results)
    rule_t, net_t, local_t = report.values[2], report.values[3], report.values[4]
    assert rule_t > 0                      # rules take micro-time
    assert net_t >= 0 and local_t >= 0
    assert rule_t + local_t < 0.1          # but far less than network time


def test_net_time_reflects_hop_latency(traced_net):
    """Every network hop costs 10 ms of simulated latency; a traced
    response that crossed the network must show NetT in multiples of
    roughly that."""
    net, profiler, handle, results = traced_net
    # Find a response that was answered remotely (requester != responder).
    remote = [t for t in results if t.values[5] != t.values[0]]
    assert remote
    tup = remote[-1]
    node = net.node(tup.values[0])
    before = len(handle.alarms["report"])
    profiler.profile_tuple(node, tup)
    net.run_for(5.0)
    reports = handle.alarms["report"][before:]
    assert reports
    net_t = reports[-1].values[3]
    assert net_t >= 0.0099  # at least one 10 ms hop


def test_online_profile_matches_offline_analysis(traced_net):
    """The query *is* the forensic tool: for several responses, the
    ep-rule walk visits exactly the rule executions the Python walker's
    ``trace_back`` lists, in order, and the two agree on rule time and
    network time."""
    from repro.analysis import latency_breakdown, trace_back

    net, profiler, handle, results = traced_net
    nodes_by_addr = {a: net.node(a) for a in net.addresses}
    forwards = net.system.collect("forward")
    # Fresh remote responses whose full chains are still retained.
    candidates = [t for t in reversed(results) if t.values[5] != t.values[0]]
    assert len(candidates) >= 3
    for tup in candidates[:4]:
        observer = net.node(tup.values[0])
        chain = trace_back(nodes_by_addr, tup.values[0], tup)
        assert len(chain) >= 2
        # Recover the observation time the same way the profiler does.
        tid = observer.registry.id_of(tup)
        observed_at = min(
            row.values[4]
            for row in observer.store.get("ruleExec").scan()
            if row.values[2] == tid
        )
        offline = latency_breakdown(chain, observed_at=observed_at)

        before = len(handle.alarms["report"])
        del forwards[:]
        profiler.profile_tuple(observer, tup)
        net.run_for(5.0)
        report = handle.alarms["report"][before:][-1]
        assert report.values[2] == pytest.approx(offline.rule_time, abs=1e-4)
        assert report.values[3] == pytest.approx(offline.net_time, abs=1e-6)

        # forward@NAddr(ID, In, InT, RuleT, NetT, LocalT, Rule): one per
        # hop of the ep walk, which ends at the stop rule.
        visited = [(t.values[0], t.values[7]) for t in forwards]
        walked = [(link.node, link.rule) for link in chain]
        assert len(visited) >= 3 and visited[-1][1] == "cs2"
        assert visited == walked[: len(visited)]
        assert any(link.crossed_network for link in chain[: len(visited)])


def test_profiling_requires_tracing():
    net = ChordNetwork(num_nodes=3, seed=6)  # tracing off
    net.start()
    net.run_for(20.0)
    profiler = ExecutionProfiler()
    node = net.node(net.addresses[0])
    from repro.runtime.tuples import Tuple

    assert profiler.profile_tuple(node, Tuple("x", ("y",))) is None
