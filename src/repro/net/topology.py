"""Latency models for simulated channels.

The paper does not shape network topology for its experiments (none of its
measurements involve latency), so :class:`ConstantLatency` is the default.
:class:`UniformLatency`, :class:`JitteredLatency`, and
:class:`AsymmetricLatency` are available for churn/robustness
experiments and fault campaigns.
"""

from __future__ import annotations

from typing import Dict, Tuple, Union

from repro.errors import NetworkError
from repro.net.address import Address
from repro.sim.rand import SimRandom


class LatencyModel:
    """Base class: maps a (src, dst) pair to a one-way delay in seconds."""

    def delay(self, src: Address, dst: Address) -> float:
        raise NotImplementedError


class ConstantLatency(LatencyModel):
    """Every message takes the same one-way delay."""

    def __init__(self, seconds: float = 0.01) -> None:
        if seconds < 0:
            raise NetworkError(f"latency must be non-negative: {seconds}")
        self.seconds = seconds

    def delay(self, src: Address, dst: Address) -> float:
        return self.seconds


class UniformLatency(LatencyModel):
    """Delay drawn uniformly from [low, high) per message.

    Draws come from the sender's own stream of the simulation's random
    source, so runs stay reproducible and a sender's delays depend only
    on its own send order: one node's send volume never perturbs
    another's, and regrouping a tick per node leaves every draw where
    a one-event-at-a-time loop makes it.  FIFO ordering is
    still enforced per channel by the network layer (delivery times are
    made monotone).
    """

    def __init__(self, rand: SimRandom, low: float, high: float) -> None:
        if low < 0 or high < low:
            raise NetworkError(f"invalid latency range [{low}, {high})")
        self._rand = rand
        self.low = low
        self.high = high

    def delay(self, src: Address, dst: Address) -> float:
        if self.high == self.low:
            return self.low
        rng = self._rand.stream(f"net.latency.{src}")
        return rng.uniform(self.low, self.high)


class JitteredLatency(LatencyModel):
    """A base delay plus uniform jitter in [0, jitter) per message.

    Equivalent to ``UniformLatency(rand, base, base + jitter)`` but
    parameterized the way fault schedules describe links: a nominal
    propagation delay and a jitter magnitude that campaigns can crank
    up independently.  Draws are per sender, as for
    :class:`UniformLatency`.
    """

    def __init__(self, rand: SimRandom, base: float, jitter: float) -> None:
        if base < 0 or jitter < 0:
            raise NetworkError(
                f"invalid jittered latency base={base} jitter={jitter}"
            )
        self._rand = rand
        self.base = base
        self.jitter = jitter

    def delay(self, src: Address, dst: Address) -> float:
        if self.jitter == 0:
            return self.base
        rng = self._rand.stream(f"net.latency.{src}")
        return rng.uniform(0, self.jitter) + self.base


class AsymmetricLatency(LatencyModel):
    """Per-directed-link delay overrides on top of a default model.

    Overrides map a ``(src, dst)`` pair to either a fixed delay in
    seconds or a nested :class:`LatencyModel`.  The mapping is
    directional, so ``(a, b)`` and ``(b, a)`` can differ — the
    asymmetric-path fault the ring probes must survive.
    """

    def __init__(
        self,
        default: LatencyModel,
        overrides: Dict[
            Tuple[Address, Address], Union[float, LatencyModel]
        ] = None,
    ) -> None:
        self._default = default
        self._overrides: Dict[
            Tuple[Address, Address], Union[float, LatencyModel]
        ] = dict(overrides or {})

    def set_link(
        self, src: Address, dst: Address, delay: Union[float, LatencyModel]
    ) -> None:
        """Override the one-way delay for the directed link src → dst."""
        if isinstance(delay, (int, float)) and delay < 0:
            raise NetworkError(f"latency must be non-negative: {delay}")
        self._overrides[(src, dst)] = delay

    def clear_link(self, src: Address, dst: Address) -> None:
        self._overrides.pop((src, dst), None)

    def delay(self, src: Address, dst: Address) -> float:
        override = self._overrides.get((src, dst))
        if override is None:
            return self._default.delay(src, dst)
        if isinstance(override, LatencyModel):
            return override.delay(src, dst)
        return float(override)
