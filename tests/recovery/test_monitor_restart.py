"""A monitor handle, and a regression suite of them, survive a restart.

A restarted node replays the monitor's program from its durable image;
the handle must follow the address to the replacement — collect its
alarms, and take its rules out on ``remove()``.
"""

from repro.core.system import System
from repro.monitors import RegressionSuite
from repro.monitors.base import Monitor
from repro.recovery.manager import RecoveryManager


def alarm_monitor():
    return Monitor("m", "r1 alarm@N(X) :- ev@N(X).", ["alarm"])


def protected_node():
    system = System(seed=0)
    node = system.add_node("a:1")
    manager = RecoveryManager(system)
    manager.protect_all()
    return system, node, manager


def raise_alarm(system, x):
    system.node("a:1").inject("ev", ("a:1", x))
    system.run_for(1.0)


def test_monitor_handle_follows_its_node_through_a_restart():
    system, node, manager = protected_node()
    handle = alarm_monitor().install([node])
    raise_alarm(system, 1)
    assert handle.count() == 1
    manager.crash("a:1")
    manager.restart("a:1")
    raise_alarm(system, 2)
    assert handle.count() == 2
    assert handle.nodes == [system.node("a:1")]
    handle.remove()
    got = system.node("a:1").collect("alarm")
    raise_alarm(system, 3)
    assert len(got) == 0
    assert handle.count() == 2


def test_regression_suite_follows_its_node_through_a_restart():
    system, node, manager = protected_node()
    suite = RegressionSuite("quiet").expect_quiet(alarm_monitor()).install([node])
    raise_alarm(system, 1)
    assert not suite.evaluate(system.now).passed
    manager.crash("a:1")
    manager.restart("a:1")
    assert suite.evaluate(system.now).passed
    raise_alarm(system, 2)
    assert "1x alarm" in str(suite.evaluate(system.now))
    suite.remove()
    got = system.node("a:1").collect("alarm")
    raise_alarm(system, 3)
    assert len(got) == 0
