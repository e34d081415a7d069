"""Shared fixtures.

Expensive Chord populations are module-scoped in the files that need
them; here we keep only the cheap universal building blocks.
"""

from __future__ import annotations

import pytest

from repro.__main__ import main
from repro.net.network import Network
from repro.net.topology import ConstantLatency
from repro.runtime.node import P2Node
from repro.sim.simulator import Simulator


def run_cli(*argv) -> int:
    """``python -m repro <argv>`` in-process; the exit code, whether
    ``main`` returned it or argparse exited with it."""
    try:
        return main([str(arg) for arg in argv])
    except SystemExit as exc:
        return exc.code


@pytest.fixture
def sim() -> Simulator:
    return Simulator(seed=42)


@pytest.fixture
def network(sim) -> Network:
    return Network(sim, ConstantLatency(0.01))


@pytest.fixture
def make_node(sim, network):
    """Factory for P2 nodes attached to the shared sim/network."""

    def factory(address: str = "n:1", **kwargs) -> P2Node:
        return P2Node(address, sim, network, **kwargs)

    return factory
