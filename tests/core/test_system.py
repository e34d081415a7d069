import pytest

from repro.core.system import System
from repro.errors import ReproError
from repro.faults.campaign import CampaignConfig
from repro.sim.batch import DEFAULT_TICK, ExecutionConfig


def test_add_and_get_node():
    system = System(seed=1)
    node = system.add_node("a:1")
    assert system.node("a:1") is node


def test_every_run_is_on_the_tick_kernel_by_default():
    system = System()
    assert system.sim.tick == DEFAULT_TICK
    assert CampaignConfig().execution == ExecutionConfig()


def test_duplicate_address_rejected():
    system = System(seed=1)
    system.add_node("a:1")
    with pytest.raises(ReproError):
        system.add_node("a:1")


def test_unknown_node_rejected():
    with pytest.raises(ReproError):
        System().node("ghost")


def test_install_on_all_nodes():
    system = System(seed=1)
    for i in range(3):
        system.add_node(f"n{i}:1")
    system.install_source("r out@N(X) :- evt@N(X).")
    sink = system.collect("out")
    for i in range(3):
        system.node(f"n{i}:1").inject("evt", (f"n{i}:1", i))
    assert len(sink) == 3


def test_install_on_subset():
    system = System(seed=1)
    system.add_node("a:1")
    system.add_node("b:1")
    system.install_source("r out@N(X) :- evt@N(X).", on=["a:1"])
    assert system.node("a:1").strands
    assert not system.node("b:1").strands


def test_tracing_option_wires_tracer():
    system = System(seed=1)
    node = system.add_node("a:1", tracing=True)
    assert node.hooks is not None
    assert node.registry is not None
    assert node.store.has("ruleExec")


def test_logging_and_reflection_options():
    system = System(seed=1)
    node = system.add_node("a:1", logging=True, reflection=True)
    assert node.store.has("tupleLog")
    assert node.store.has("sysTable")


def test_crash_and_live_nodes():
    system = System(seed=1)
    system.add_node("a:1")
    system.add_node("b:1")
    system.crash("a:1")
    assert system.live_nodes() == ["b:1"]


def test_total_live_tuples():
    system = System(seed=1)
    node = system.add_node("a:1")
    node.install_source("materialize(t, 60, 10, keys(1,2)).")
    node.inject("t", ("a:1", 1))
    node.inject("t", ("a:1", 2))
    assert system.total_live_tuples() == 2


def test_run_advances_virtual_time():
    system = System(seed=1)
    system.run_for(5.0)
    assert system.now == 5.0
    system.run_until(9.0)
    assert system.now == 9.0


# Each was accepted, or escaped as a bare ValueError / TypeError: a zero
# or negative lifetime kept no trace at all, NaN expired nothing, and a
# fractional capacity was truncated.
BAD_RING_ARGUMENTS = [
    ("trace_lifetime", 0),
    ("trace_lifetime", -5),
    ("trace_lifetime", float("nan")),
    ("trace_lifetime", float("inf")),
    ("trace_lifetime", "120"),
    ("trace_entries", float("nan")),
    ("trace_entries", True),
    ("log_capacity", 2.5),
    ("tuple_entries", "100"),
]


@pytest.mark.parametrize("where", ["system", "add_node"])
@pytest.mark.parametrize("name, value", BAD_RING_ARGUMENTS)
def test_bad_ring_arguments_are_rejected_by_name(where, name, value):
    if where == "add_node":
        # Ring sizes are System options only; a node takes none.
        with pytest.raises(TypeError, match=name):
            System(seed=0).add_node(
                "a:1", tracing=True, logging=True, **{name: value}
            )
        return
    with pytest.raises(ReproError) as raised:
        System(seed=0, **{name: value}).add_node(
            "a:1", tracing=True, logging=True
        )
    message = str(raised.value)
    assert name in message and repr(value) in message
