"""Receiver pushback and bounded transport queues.

The reliable-transport half of overload protection: an admission gate
can refuse a frame (BUSY nack, sender backs off and retries), the
sender's in-flight window and backlog are capped (overflow is an
attributed drop, not silent), and the receiver's reorder buffer is
bounded (over-cap out-of-order frames go un-acked and are redelivered
by retransmission).
"""

from __future__ import annotations

from repro.net.network import DROP_BACKLOG, Network, ReliableConfig
from repro.net.topology import ConstantLatency
from repro.sim.simulator import Simulator


def build(seed=0, loss=0.0, config=None, **kwargs):
    sim = Simulator(seed=seed)
    net = Network(
        sim,
        ConstantLatency(0.01),
        loss_rate=loss,
        transport="reliable",
        reliable=config,
        **kwargs,
    )
    return sim, net


# ----------------------------------------------------------------------
# BUSY nacks


def test_refused_frame_is_nacked_and_retried():
    sim, net = build(config=ReliableConfig(rto=0.2, jitter=0.0))
    got = []
    admitted = []
    net.attach("b", lambda m: got.append(m.body))
    # Refuse the first presentation of every frame, accept retries.
    def gate(message):
        if message.body in admitted:
            return True
        admitted.append(message.body)
        return False
    net.set_admission("b", gate)
    for i in range(5):
        net.send("a", "b", i)
    sim.run_until(10.0)
    assert got == list(range(5))  # delayed, never lost
    assert net.stats.busy_nacks == 5
    assert net.stats.messages_retransmitted >= 5


def test_permanently_busy_receiver_exhausts_retries():
    sim, net = build(config=ReliableConfig(rto=0.1, max_retries=3, jitter=0.0))
    failed = []
    net.attach("b", lambda m: None)
    net.set_admission("b", lambda m: False)
    net.on_send_failure.append(lambda m: failed.append(m.body))
    net.send("a", "b", "m")
    sim.run_until(30.0)
    assert failed == ["m"]
    assert net.stats.busy_nacks >= 1
    assert net.stats.send_failures == 1


def test_accepting_gate_is_invisible():
    sim, net = build()
    got = []
    net.attach("b", lambda m: got.append(m.body))
    net.set_admission("b", lambda m: True)
    for i in range(10):
        net.send("a", "b", i)
    sim.run_until(5.0)
    assert got == list(range(10))
    assert net.stats.busy_nacks == 0


def test_detach_clears_the_admission_gate():
    sim, net = build()
    net.attach("b", lambda m: None)
    net.set_admission("b", lambda m: False)
    net.detach("b")
    net.attach("b", lambda m: None)
    net.send("a", "b", "m")
    sim.run_until(5.0)
    assert net.stats.busy_nacks == 0  # old gate did not survive detach


def test_duplicate_frames_bypass_the_gate():
    """Duplicates of already-delivered frames are re-acked without
    consulting admission — the receiver already owns that payload."""
    sim, net = build(seed=3, duplicate_rate=0.5)
    got = []
    gate_calls = []
    net.attach("b", lambda m: got.append(m.body))
    def gate(message):
        gate_calls.append(message.body)
        return True
    net.set_admission("b", gate)
    for i in range(30):
        net.send("a", "b", i)
    sim.run_until(30.0)
    assert got == list(range(30))
    assert len(gate_calls) == 30  # one admission decision per payload


# ----------------------------------------------------------------------
# Window and backlog caps


def test_window_cap_queues_sends_in_backlog():
    sim, net = build(config=ReliableConfig(window=2, backlog=100))
    got = []
    net.attach("b", lambda m: got.append(m.body))
    for i in range(10):
        net.send("a", "b", i)
    assert net.stats.backlogged == 8  # only 2 in flight at once
    sim.run_until(10.0)
    assert got == list(range(10))  # backlog drains in order
    assert net.pending_reliable() == 0


def test_backlog_overflow_is_an_attributed_drop():
    sim, net = build(config=ReliableConfig(window=1, backlog=2))
    failed = []
    net.attach("b", lambda m: None)
    net.on_send_failure.append(lambda m: failed.append(m.body))
    for i in range(6):
        net.send("a", "b", i)
    # 1 in flight + 2 backlogged; the other 3 overflow immediately.
    assert failed == [3, 4, 5]
    assert net.stats.drop_reasons.get(DROP_BACKLOG, 0) == 3


def test_unbounded_defaults_never_backlog():
    sim, net = build()
    net.attach("b", lambda m: None)
    for i in range(200):
        net.send("a", "b", i)
    assert net.stats.backlogged == 0
    assert net.stats.drop_reasons.get(DROP_BACKLOG, 0) == 0


# ----------------------------------------------------------------------
# Reorder-buffer cap


def test_reorder_cap_refuses_excess_held_frames():
    sim, net = build(
        seed=11,
        loss=0.3,
        config=ReliableConfig(rto=0.2, jitter=0.0, reorder_cap=1),
    )
    got = []
    net.attach("b", lambda m: got.append(m.body))
    for i in range(40):
        net.send("a", "b", i)
    sim.run_until(120.0)
    assert net.stats.held_overflow > 0
    # Over-cap out-of-order frames went un-acked and were redelivered
    # by retransmission, so delivery stays in order; a frame may still
    # be abandoned (the cap makes its successors burn retries while
    # the gap persists), but only as an attributed sender-side failure.
    assert got == sorted(got)
    # Every missing frame maps to a sender-visible failure (the
    # converse is not one-to-one: a delivered frame whose acks were
    # all lost also exhausts its retries).
    missing = set(range(40)) - set(got)
    assert len(missing) <= net.stats.send_failures
