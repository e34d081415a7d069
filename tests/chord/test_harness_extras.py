"""Chord harness coverage beyond ring formation."""

import pytest

from repro.chord import ChordNetwork, ChordParams
from repro.errors import ReproError, SimulationError
from repro.gossip import GossipNetwork
from repro.net.topology import ConstantLatency, JitteredLatency
from repro.sim.batch import ExecutionConfig
from repro.sim.rand import SimRandom


def test_late_node_joins_established_ring():
    net = ChordNetwork(num_nodes=4, seed=61)
    net.start()
    assert net.wait_stable(max_time=200.0)
    late = net.add_late_node()
    assert len(net.addresses) == 5
    assert net.wait_stable(max_time=200.0), net.ring_errors()
    assert late in net.live_addresses()
    # The late node is fully wired: its neighbors point at it.
    assert net.pred_of(net.best_succ_of(late)) == late


def test_buggy_variant_forms_a_ring_too():
    """The recycled-dead-neighbor bug is latent: without failures, the
    buggy variant behaves identically."""
    net = ChordNetwork(num_nodes=5, seed=62, recycle_dead_bug=True)
    net.start()
    assert net.wait_stable(max_time=200.0), net.ring_errors()


def test_custom_params_respected():
    params = ChordParams(stabilize_period=2.0, succ_keep=3)
    net = ChordNetwork(num_nodes=5, seed=63, params=params)
    net.start()
    assert net.wait_stable(max_time=200.0)
    net.run_for(30.0)
    for addr in net.live_addresses():
        # Trimming keeps the list near succ_keep (one insert can
        # transiently exceed it before the evict rule fires).
        assert len(net.node(addr).query("succ")) <= params.succ_keep + 1


def test_live_addresses_excludes_unjoined_nodes():
    net = ChordNetwork(num_nodes=4, seed=64)
    # start() not called: nobody joined yet.
    assert net.live_addresses() == []


def test_lookup_before_join_times_out():
    from repro.overlog.types import NodeID

    net = ChordNetwork(num_nodes=3, seed=65)
    for addr in net.addresses:
        net._prepare(addr)  # identity, but no join event
    result = net.lookup(net.addresses[0], NodeID(123), timeout=2.0)
    assert result is None


def test_system_options_are_forwarded_not_redeclared():
    """The harness declares no ``System`` option of its own: what it is
    given reaches the system, ``id_bits`` follows ``params``, and a
    misspelt option is ``System``'s ``TypeError``."""
    net = ChordNetwork(
        num_nodes=2, params=ChordParams(id_bits=16),
        transport="reliable", trace_entries=77, tuple_entries=99,
    )
    assert net.system.network.transport == "reliable"
    assert (net.system.trace_entries, net.system.tuple_entries) == (77, 99)
    assert net.system.id_bits == 16
    with pytest.raises(TypeError, match="trasport"):
        ChordNetwork(num_nodes=2, trasport="reliable")


def test_a_latency_model_reaches_the_network_as_given():
    model = JitteredLatency(SimRandom(0), 0.01, 0.005)
    net = ChordNetwork(num_nodes=2, latency=model)
    assert net.system.network.latency_model is model


#: Second spellings of a setting, each rejected where it is given.
SECOND_SPELLINGS = {
    "latency_model": (
        TypeError,
        lambda: ChordNetwork(num_nodes=2, latency_model=ConstantLatency(0.02)),
    ),
    "join_retry": (
        TypeError,
        lambda: ChordNetwork(num_nodes=2).start(join_retry=1.0),
    ),
    # Every run is on a tick grid: tick=0 and execution=None spell no
    # loop and are rejected.
    "tick=0": (
        SimulationError,
        lambda: ChordNetwork(num_nodes=2, execution=ExecutionConfig(tick=0.0)),
    ),
    "execution=None": (
        ReproError,
        lambda: ChordNetwork(num_nodes=2, execution=None),
    ),
}


@pytest.mark.parametrize("spelling", list(SECOND_SPELLINGS))
def test_a_second_spelling_is_rejected(spelling):
    error, build = SECOND_SPELLINGS[spelling]
    with pytest.raises(error):
        build()


@pytest.mark.parametrize("count", [0, -3])
def test_empty_population_is_a_typed_error(count):
    with pytest.raises(ReproError, match=f"num_nodes must be at least 1, got {count}"):
        ChordNetwork(num_nodes=count)
    with pytest.raises(ReproError, match="num_nodes must be at least 1"):
        GossipNetwork(num_nodes=count)
