"""The reference execution: one event at a time, one event per message.

This is how a :class:`~repro.sim.simulator.Simulator` and a
:class:`~repro.net.network.Network` ran before the tick loop became
the only loop — the per-event loop that pops the heap one event at a
time in canonical ``(time, priority, origin, origin seq)`` order, and
the UDP hop that schedules one delivery event per message.  It is kept
as the oracle the differential batteries (``tests/batchexec``,
``test_batched_mailbox``, ``test_batch_accounting``, ``test_send_path``,
``tests/sim``) run the tick loop against: same seed, byte-identical
state.

Nothing in ``src/`` can select it.  :func:`use_reference` replaces one
method on each instance — ``Simulator._run_ticks`` and
``Network._post`` — and :func:`reference` does that for every simulator
and network built inside a ``with`` block (a campaign or a harness
builds its own).  The tick hooks run after *every* event rather than
every tick, so the forensic store cuts a segment after any event that
fills its buffer, as the old inline cut did (minus the mid-event
position).
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import partial
from heapq import heappop

from repro.net.network import DELIVERY_PRIORITY, Network
from repro.sim.simulator import GLOBAL_ORIGIN, Simulator


def run_events(sim: Simulator, when: float) -> None:
    """The per-event loop: one event at a time in canonical order, the
    tick hooks after each."""
    heap = sim._heap
    clock = sim.clock
    on_tick = sim.on_tick
    while heap:
        entry = heap[0]
        if entry[0] > when:
            break
        heappop(heap)
        event = entry[4]
        if event.cancelled:
            continue
        clock._now = entry[0]
        sim._events_processed += 1
        group = event.group
        sim._origin = group if group is not None else GLOBAL_ORIGIN
        event.callback()
        for hook in on_tick:
            hook(entry[0])


def post_each(network: Network, when: float, message) -> None:
    """The per-message UDP hop: one delivery event per message."""
    network._sim.schedule_at(
        when,
        partial(network._hand_over, (message,), network._down),
        priority=DELIVERY_PRIORITY,
        group=message.dst,
    )


def use_reference(target) -> None:
    """Run ``target`` — a Simulator, a Network, or a System (both) — on
    the reference from now on."""
    sim = getattr(target, "sim", target)
    network = getattr(target, "network", target)
    if isinstance(sim, Simulator):
        sim._run_ticks = partial(run_events, sim)
    if isinstance(network, Network):
        network._post = partial(post_each, network)


@contextmanager
def reference():
    """Every Simulator and Network built inside the block runs the
    reference."""
    inits = {cls: cls.__init__ for cls in (Simulator, Network)}

    def patched(cls):
        def __init__(self, *args, **kwargs):
            inits[cls](self, *args, **kwargs)
            use_reference(self)

        return __init__

    for cls in inits:
        cls.__init__ = patched(cls)
    try:
        yield
    finally:
        for cls, init in inits.items():
            cls.__init__ = init
