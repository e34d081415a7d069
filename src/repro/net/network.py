"""The simulated network connecting virtual P2 nodes.

Nodes register a receive callback under their address.  ``send`` routes
through one of two transport modes:

- **udp** (default) — fire-and-forget over a per-(src, dst) FIFO
  channel, exactly the paper's transport: loss, partitions, and crashes
  silently drop messages and the sender cannot tell.
- **reliable** — per-message acks, retransmission with exponential
  backoff + jitter, receiver-side dedup and reorder buffering.  The
  application sees exactly-once, per-channel FIFO delivery even when
  the fabric drops, duplicates, and reorders frames; a message that
  exhausts its retries becomes a *sender-visible* drop
  (``drop_reasons["retries_exhausted"]`` plus the ``on_send_failure``
  callbacks).

Fault knobs beyond loss/partition/crash: ``reorder_rate`` (a message
skips the FIFO clamp and takes extra random delay), ``duplicate_rate``
(the fabric delivers a second copy), and per-directed-link loss rates
layered over the global one.

The network keeps global and per-node message counters — the "Tx
messages" series of the paper's Figures 6 and 7 — plus a per-reason
drop breakdown and retransmit counters the fault-campaign verdicts are
built from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.errors import NetworkError
from repro.histogram import HistogramData
from repro.net.address import Address
from repro.net.channel import Channel, PendingSend, ReliableChannel
from repro.net.topology import ConstantLatency, LatencyModel
from repro.sim.simulator import Simulator

#: Drop-reason keys used in :attr:`NetworkStats.drop_reasons`.
DROP_LOSS = "loss"
DROP_PARTITION = "partition"
DROP_DOWN = "down"
DROP_NO_RECEIVER = "no_receiver"
DROP_RETRIES = "retries_exhausted"
DROP_BACKLOG = "send_backlog_full"


class Message:
    """An in-flight network message.

    ``body`` is what the receiver applies — for a node, the
    receiver-ready :class:`~repro.runtime.tuples.Tuple` or the
    :class:`~repro.runtime.strand.DeleteAction` of a remote delete,
    normalised by :mod:`repro.net.marshal` to what the wire would
    deliver.  ``src_tid`` and ``mid`` are the sender's trace identity
    for it (the receiver's ``tupleTable`` links the two); ``size`` is
    its exact wire length.  ``admitted`` is set once the reliable gate
    accepted the frame: the receiver counts the arrival instead of
    deciding admission twice.

    A plain __slots__ class rather than a dataclass: one Message is
    built per send, on the hot path.
    """

    __slots__ = (
        "src", "dst", "body", "sent_at", "size", "src_tid", "mid", "admitted",
    )

    def __init__(
        self,
        src: Address,
        dst: Address,
        body: Any,
        sent_at: float,
        size: int = 0,
        src_tid: Optional[int] = None,
        mid: Optional[int] = None,
    ) -> None:
        self.src = src
        self.dst = dst
        self.body = body
        self.sent_at = sent_at
        self.size = size
        self.src_tid = src_tid
        self.mid = mid
        self.admitted = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Message(src={self.src!r}, dst={self.dst!r}, "
            f"sent_at={self.sent_at!r}, size={self.size!r})"
        )


@dataclass
class ReliableConfig:
    """Tuning for the reliable transport mode.

    The retransmit timeout for attempt *k* (0-based) is
    ``rto * backoff ** k`` plus a uniform jitter in ``[0, jitter)``
    drawn from the ``net.rto`` stream, so the backoff sequence is
    deterministic under the master seed.  ``max_retries`` counts
    retransmissions (so a message is transmitted at most
    ``max_retries + 1`` times) before the sender gives up.
    ``hold_timeout`` bounds receiver-side head-of-line blocking: a
    frame held behind a gap longer than this has its gap skipped
    (the sender must have given up on it).  ``None`` derives it from
    the full retransmit horizon.

    The three ``None``-default capacities bound the transport's own
    queues (overload protection; ``None`` keeps them unbounded, the
    pre-overload behaviour): ``window`` caps in-flight unacked sends
    per channel, ``backlog`` caps the sender-side queue of messages
    waiting for window space (overflow is a sender-visible drop like
    retry exhaustion), and ``reorder_cap`` caps the receiver's held
    buffer (an over-cap out-of-order frame is not acked, so the
    sender's retransmit redelivers it after the gap drains).
    """

    rto: float = 0.25
    backoff: float = 2.0
    max_retries: int = 6
    jitter: float = 0.05
    hold_timeout: Optional[float] = None
    window: Optional[int] = None
    backlog: Optional[int] = None
    reorder_cap: Optional[int] = None

    def timeout_for(self, attempt: int) -> float:
        return self.rto * (self.backoff ** attempt)

    def horizon(self) -> float:
        """Upper bound on the time a sender keeps retrying a message."""
        if self.hold_timeout is not None:
            return self.hold_timeout
        total = sum(
            self.timeout_for(k) for k in range(self.max_retries + 1)
        )
        return total + self.jitter * (self.max_retries + 1) + 1.0


@dataclass
class NetworkStats:
    """Counters the benchmark harness and campaign verdicts sample.

    ``messages_sent``/``per_node_sent`` count application sends (the
    paper's Tx series); retransmissions and acks are transport
    overhead, counted separately.  Every dropped message increments
    ``messages_dropped`` *and* one ``drop_reasons`` bucket, so the
    breakdown always sums to the total and a campaign verdict never
    has to guess why a message vanished.
    """

    messages_sent: int = 0
    messages_delivered: int = 0
    messages_dropped: int = 0
    bytes_sent: int = 0
    messages_retransmitted: int = 0
    messages_duplicated: int = 0
    messages_reordered: int = 0
    duplicates_suppressed: int = 0
    acks_sent: int = 0
    acks_dropped: int = 0
    send_failures: int = 0
    gap_skips: int = 0
    busy_nacks: int = 0
    backlogged: int = 0
    held_overflow: int = 0
    drop_reasons: Dict[str, int] = field(default_factory=dict)
    per_node_sent: Dict[Address, int] = field(default_factory=dict)
    per_node_received: Dict[Address, int] = field(default_factory=dict)
    per_node_failed: Dict[Address, int] = field(default_factory=dict)

    def count_drop(self, reason: str) -> None:
        self.messages_dropped += 1
        self.drop_reasons[reason] = self.drop_reasons.get(reason, 0) + 1


class Network:
    """Message fabric with two transport modes and rich fault injection."""

    def __init__(
        self,
        sim: Simulator,
        latency: Optional[LatencyModel] = None,
        loss_rate: float = 0.0,
        transport: str = "udp",
        reliable: Optional[ReliableConfig] = None,
        reorder_rate: float = 0.0,
        duplicate_rate: float = 0.0,
        reorder_window: float = 0.05,
        obs=None,
    ) -> None:
        if not 0.0 <= loss_rate < 1.0:
            raise NetworkError(f"loss rate must be in [0, 1): {loss_rate}")
        if transport not in ("udp", "reliable"):
            raise NetworkError(f"unknown transport mode: {transport!r}")
        for name, rate in (
            ("reorder", reorder_rate),
            ("duplicate", duplicate_rate),
        ):
            if not 0.0 <= rate < 1.0:
                raise NetworkError(
                    f"{name} rate must be in [0, 1): {rate}"
                )
        self._sim = sim
        self._now = sim.clock.reader()
        self._latency = latency if latency is not None else ConstantLatency(0.01)
        self._loss_rate = loss_rate
        self._link_loss: Dict[Tuple[Address, Address], float] = {}
        self.transport = transport
        self.reliable_config = reliable if reliable is not None else ReliableConfig()
        self._reorder_rate = reorder_rate
        self._duplicate_rate = duplicate_rate
        self._reorder_window = reorder_window
        self._receivers: Dict[Address, Callable[[Message], None]] = {}
        self._admission: Dict[Address, Callable[[Message], bool]] = {}
        self._channels: Dict[Tuple[Address, Address], Channel] = {}
        self._blocked: Set[frozenset] = set()
        self._down: Set[Address] = set()
        # Tick mode (docs/SCALE.md): fabric randomness moves to
        # per-sender streams so each sender's draw sequence depends only
        # on its own processing order (kernel-independent), and message
        # deliveries get priority -1 so a tick's deliveries sort before
        # its timers under both kernels.  Legacy mode keeps the global
        # streams and priority 0 — bit-identical to the pre-batch fabric.
        self._det = sim.det_order
        self._delivery_priority = -1 if self._det else 0
        # Batch fabric (enabled alongside the batch kernel): one
        # simulator event per (delivery tick, destination) carrying the
        # whole message list, instead of one event per message.
        self._batch_fabric = False
        self._pending_batches: Dict[Tuple[float, Address], List[Message]] = {}
        self.stats = NetworkStats()
        #: Telemetry plane (``repro.obs.telemetry.Telemetry``) or None;
        #: None keeps every fast path free of telemetry calls.
        self.obs = obs
        #: (src, dst) -> send-to-delivery latencies and armed retransmit
        #: timeouts, kept while ``obs`` is set; the telemetry registry
        #: reads them as ``net_message_latency_seconds`` and
        #: ``net_retransmit_backoff_seconds``.
        self.link_latency: Dict[Tuple[Address, Address], HistogramData] = {}
        self.link_backoff: Dict[Tuple[Address, Address], HistogramData] = {}
        #: Called with the abandoned :class:`Message` when the reliable
        #: transport exhausts its retries — the sender-visible drop.
        self.on_send_failure: List[Callable[[Message], None]] = []

    def _stream(self, name: str, entity: Address):
        """A fabric random stream: per-entity in tick mode, global in
        legacy mode (see the constructor comment)."""
        if self._det:
            return self._sim.random.stream(f"{name}.{entity}")
        return self._sim.random.stream(name)

    # ------------------------------------------------------------------
    # Registration

    def attach(self, address: Address, receiver: Callable[[Message], None]) -> None:
        """Register a node's receive callback under its address."""
        if address in self._receivers:
            raise NetworkError(f"address already attached: {address}")
        self._receivers[address] = receiver

    def use_batch_fabric(self) -> None:
        """Coalesce UDP deliveries into per-(tick, destination) batches.

        Requires tick mode.  Reliable-transport frames keep
        per-message events (their ack/retransmit machinery is
        per-frame).
        """
        if not self._det:
            raise NetworkError("the batch fabric requires tick mode")
        self._batch_fabric = True
        self._latency.use_per_source_streams()

    def set_admission(
        self, address: Address, gate: Callable[[Message], bool]
    ) -> None:
        """Register a receiver-side admission gate for reliable frames.

        The gate is consulted before a non-duplicate data frame to
        ``address`` is acknowledged; returning False withholds the ack
        and sends an explicit BUSY nack, so the sender keeps the
        message and retries under its normal backoff (receiver
        pushback — overload protection's backpressure hook).
        """
        self._admission[address] = gate

    def detach(self, address: Address) -> None:
        """Remove a node from the network (future messages to it drop)."""
        self._receivers.pop(address, None)
        self._admission.pop(address, None)

    def is_attached(self, address: Address) -> bool:
        return address in self._receivers

    @property
    def addresses(self) -> list:
        return sorted(self._receivers)

    # ------------------------------------------------------------------
    # Fault injection

    def partition(self, a: Address, b: Address) -> None:
        """Block traffic in both directions between ``a`` and ``b``."""
        self._blocked.add(frozenset((a, b)))

    def heal(self, a: Address, b: Address) -> None:
        """Remove a partition between ``a`` and ``b``."""
        self._blocked.discard(frozenset((a, b)))

    def take_down(self, address: Address) -> None:
        """Silently drop all traffic to and from ``address``."""
        self._down.add(address)

    def bring_up(self, address: Address) -> None:
        self._down.discard(address)

    def set_loss_rate(self, rate: float) -> None:
        if not 0.0 <= rate < 1.0:
            raise NetworkError(f"loss rate must be in [0, 1): {rate}")
        self._loss_rate = rate

    def set_latency_model(self, model: LatencyModel) -> None:
        """Swap the latency model (e.g. for a jittered-latency fault
        window); affects messages sent from now on."""
        if self._batch_fabric:
            model.use_per_source_streams()
        self._latency = model

    @property
    def latency_model(self) -> LatencyModel:
        return self._latency

    def set_link_loss(self, src: Address, dst: Address, rate: float) -> None:
        """Set a loss rate for the directed link src → dst (overrides the
        global rate for that link; 0 restores the global rate)."""
        if not 0.0 <= rate < 1.0:
            raise NetworkError(f"loss rate must be in [0, 1): {rate}")
        if rate == 0.0:
            self._link_loss.pop((src, dst), None)
        else:
            self._link_loss[(src, dst)] = rate

    def set_reorder_rate(self, rate: float) -> None:
        if not 0.0 <= rate < 1.0:
            raise NetworkError(f"reorder rate must be in [0, 1): {rate}")
        self._reorder_rate = rate

    def set_duplicate_rate(self, rate: float) -> None:
        if not 0.0 <= rate < 1.0:
            raise NetworkError(f"duplicate rate must be in [0, 1): {rate}")
        self._duplicate_rate = rate

    # ------------------------------------------------------------------
    # Sending

    def send(
        self,
        src: Address,
        dst: Address,
        body: Any,
        size: int = 0,
        src_tid: Optional[int] = None,
        mid: Optional[int] = None,
    ) -> None:
        """Send ``body`` from ``src`` to ``dst`` (fields: :class:`Message`).

        UDP mode: messages to unknown/down/partitioned destinations are
        counted as sent and dropped — the sender cannot tell.  Reliable
        mode: the message is tracked until acked or retries run out;
        only exhaustion makes it a (sender-visible) drop.
        """
        stats = self.stats
        stats.messages_sent += 1
        stats.bytes_sent += size
        sent = stats.per_node_sent
        sent[src] = sent.get(src, 0) + 1
        now = self._now()
        message = Message(src, dst, body, now, size, src_tid, mid)
        if self.transport == "reliable":
            channel = self._reliable_channel(src, dst)
            config = self.reliable_config
            if (
                config.window is not None
                and len(channel.pending) >= config.window
            ):
                if (
                    config.backlog is not None
                    and len(channel.backlog) >= config.backlog
                ):
                    # Sender-visible overflow, surfaced exactly like
                    # retry exhaustion: drop + failure callbacks.
                    self._drop(DROP_BACKLOG, src, dst)
                    self._count_send_failure(message)
                    return
                channel.backlog.append(message)
                self.stats.backlogged += 1
                return
            entry = channel.open_send(message)
            self._transmit(channel, entry, first=True)
            return
        if self._down or self._blocked or self._loss_rate > 0.0 or (
            self._link_loss
        ):
            reason = self._drop_reason(src, dst)
            if reason is not None:
                self._drop(reason, src, dst)
                return
        link = (src, dst)
        channel = self._channels.get(link)
        if channel is None:
            channel = self._channels[link] = Channel(src, dst)
        # A fabric duplicate is a second pass that skips the FIFO clamp.
        duplicate = False
        while True:
            delay = self._latency.delay(src, dst)
            fifo = not duplicate
            if self._reorder_rate > 0.0 and (
                self._stream("net.reorder", src).random() < self._reorder_rate
            ):
                stats.messages_reordered += 1
                delay += self._stream("net.reorder", src).uniform(
                    0, self._reorder_window
                )
                fifo = False
            when = channel.next_delivery_time(now, delay, fifo)
            if self._batch_fabric:
                # One event per (arrival tick, destination): the first
                # message to the pair schedules the event, later ones
                # append to the in-flight batch.  Append order equals the
                # canonical per-message delivery order — senders execute
                # in canonical order and each sender's sends are its own
                # origin-seq order.
                arrival = (when, dst)
                batch = self._pending_batches.get(arrival)
                if batch is None:
                    self._pending_batches[arrival] = [message]
                    self._sim.schedule_at(
                        when,
                        partial(self._deliver_batch, arrival),
                        priority=self._delivery_priority,
                        group=dst,
                    )
                else:
                    batch.append(message)
            else:
                self._sim.schedule_at(
                    when,
                    partial(self._hand_over, (message,), self._down),
                    priority=self._delivery_priority,
                    group=dst,
                )
            if duplicate or not (
                self._duplicate_rate > 0.0
                and self._stream("net.dup", src).random() < self._duplicate_rate
            ):
                return
            stats.messages_duplicated += 1
            duplicate = True

    def _drop(self, reason: str, src: Address, dst: Address) -> None:
        """Account one dropped message (stats bucket + telemetry event)."""
        self.stats.count_drop(reason)
        if self.obs is not None:
            self.obs.event("net.drop", reason=reason, link=f"{src}->{dst}")

    def _drop_reason(self, src: Address, dst: Address) -> Optional[str]:
        """Why a transmission attempt would fail right now (None = ok)."""
        down = self._down
        if down and (src in down or dst in down):
            return DROP_DOWN
        if self._blocked and frozenset((src, dst)) in self._blocked:
            return DROP_PARTITION
        rate = self._link_loss.get((src, dst), self._loss_rate)
        if rate > 0.0:
            if self._stream("net.loss", src).random() < rate:
                return DROP_LOSS
        return None

    def _reliable_channel(self, src: Address, dst: Address) -> ReliableChannel:
        key = (src, dst)
        channel = self._channels.get(key)
        if channel is None:
            channel = ReliableChannel(src, dst)
            self._channels[key] = channel
        elif not isinstance(channel, ReliableChannel):
            raise NetworkError(
                f"channel {src} -> {dst} was opened in UDP mode; "
                "transport mode cannot change mid-run"
            )
        return channel

    def _deliver_batch(self, arrival: Tuple[float, Address]) -> None:
        """Deliver one (tick, destination) batch of UDP messages, each
        exactly as its own per-message event would have been."""
        self._hand_over(self._pending_batches.pop(arrival), self._down)

    def _hand_over(self, messages: Iterable[Message], down=frozenset()) -> None:
        """Give each message to its destination's receiver, in order,
        with delivery stats and latency — or count why it cannot be.

        ``down`` holds the addresses whose traffic is dropped at
        delivery: a UDP message re-checks crashes that happened while
        it was in flight; a reliable frame leaves them to retransmission.
        """
        receivers = self._receivers
        stats = self.stats
        received = stats.per_node_received
        obs = self.obs
        for message in messages:
            src, dst = message.src, message.dst
            if down and (dst in down or src in down):
                self._drop(DROP_DOWN, src, dst)
                continue
            receiver = receivers.get(dst)
            if receiver is None:
                self._drop(DROP_NO_RECEIVER, src, dst)
                continue
            stats.messages_delivered += 1
            received[dst] = received.get(dst, 0) + 1
            if obs is not None:
                latency = self.link_latency.get((src, dst))
                if latency is None:
                    latency = self.link_latency[(src, dst)] = HistogramData()
                latency.observe(self._now() - message.sent_at)
            receiver(message)

    # ------------------------------------------------------------------
    # Reliable transport: ack / retransmit / reorder machinery

    def _transmit(
        self, channel: ReliableChannel, entry: PendingSend, first: bool
    ) -> None:
        """One transmission attempt of a tracked message (plus the
        retransmit timer that backstops it)."""
        message = entry.message
        if not first:
            self.stats.messages_retransmitted += 1
            if self.obs is not None:
                self.obs.event(
                    "net.retransmit",
                    link=f"{message.src}->{message.dst}",
                    seq=entry.seq,
                    attempt=entry.attempts,
                )
        reason = self._drop_reason(message.src, message.dst)
        if reason is None:
            base = channel.base
            self._schedule_frame(channel, entry.seq, base, message)
            if self._duplicate_rate > 0.0 and (
                self._stream("net.dup", message.src).random()
                < self._duplicate_rate
            ):
                self.stats.messages_duplicated += 1
                self._schedule_frame(channel, entry.seq, base, message)
        # A failed attempt is not yet a drop: the retransmit timer gets
        # another try.  Only exhaustion below counts one.
        config = self.reliable_config
        if entry.attempts > config.max_retries:
            raise NetworkError("transmit called past max retries")
        timeout = config.timeout_for(entry.attempts)
        if config.jitter > 0:
            timeout += self._stream("net.rto", message.src).uniform(
                0, config.jitter
            )
        if self.obs is not None:
            self._note_backoff(message.src, message.dst, timeout)
        entry.attempts += 1
        entry.timer = self._sim.schedule(
            timeout,
            lambda: self._retransmit(channel, entry),
            group=message.src,
        )

    def _note_backoff(self, src: Address, dst: Address, timeout: float) -> None:
        backoff = self.link_backoff.get((src, dst))
        if backoff is None:
            backoff = self.link_backoff[(src, dst)] = HistogramData()
        backoff.observe(timeout)

    def _retransmit(self, channel: ReliableChannel, entry: PendingSend) -> None:
        if channel.pending.get(entry.seq) is not entry:
            return  # acked (or abandoned) in the meantime
        if entry.attempts > self.reliable_config.max_retries:
            channel.give_up(entry.seq)
            self._drop(DROP_RETRIES, entry.message.src, entry.message.dst)
            if self.obs is not None:
                self.obs.event(
                    "net.send_failure",
                    link=f"{entry.message.src}->{entry.message.dst}",
                    seq=entry.seq,
                )
            self._count_send_failure(entry.message)
            self._drain_backlog(channel)
            return
        self._transmit(channel, entry, first=False)

    def _count_send_failure(self, message: Message) -> None:
        self.stats.send_failures += 1
        failed = self.stats.per_node_failed
        failed[message.src] = failed.get(message.src, 0) + 1
        for callback in self.on_send_failure:
            callback(message)

    def _drain_backlog(self, channel: ReliableChannel) -> None:
        """Promote backlogged sends into freed window slots."""
        config = self.reliable_config
        if config.window is None:
            return
        while channel.backlog and len(channel.pending) < config.window:
            message = channel.backlog.popleft()
            entry = channel.open_send(message)
            self._transmit(channel, entry, first=True)

    def _schedule_frame(
        self, channel: ReliableChannel, seq: int, base: int, message: Message
    ) -> None:
        """Schedule fabric delivery of one data frame (seq restores
        ordering, so the FIFO clamp is bypassed; ``base`` is the
        sender's lowest unresolved seq at transmit time)."""
        delay = self._latency.delay(message.src, message.dst)
        if self._reorder_rate > 0.0 and (
            self._stream("net.reorder", message.src).random()
            < self._reorder_rate
        ):
            self.stats.messages_reordered += 1
            delay += self._stream("net.reorder", message.src).uniform(
                0, self._reorder_window
            )
        when = channel.next_delivery_time(self._now(), delay, fifo=False)
        self._sim.schedule_at(
            when,
            lambda: self._deliver_frame(channel, seq, base, message),
            priority=self._delivery_priority,
            group=message.dst,
        )

    def _deliver_frame(
        self, channel: ReliableChannel, seq: int, base: int, message: Message
    ) -> None:
        if message.dst in self._down or message.src in self._down:
            # In-flight crash/down: the retransmit timer (or retry
            # exhaustion) accounts for this message, not a drop here.
            return
        if message.dst not in self._receivers:
            return
        duplicate = seq in channel.seen or seq < channel.next_deliver
        if not duplicate:
            gate = self._admission.get(message.dst)
            if gate is not None:
                if not gate(message):
                    # Receiver pushback: withhold the ack and send an
                    # explicit BUSY nack instead — the sender keeps the
                    # message and re-arms its retransmit backoff.
                    self.stats.busy_nacks += 1
                    self._send_busy(channel, seq)
                    return
                message.admitted = True
            config = self.reliable_config
            if (
                config.reorder_cap is not None
                and seq != channel.next_deliver
                and len(channel.held) >= config.reorder_cap
            ):
                # Held-buffer cap: un-acked, so the retransmit timer
                # redelivers this frame once the gap drains.
                self.stats.held_overflow += 1
                return
        # Ack every arriving frame — including duplicates, whose
        # original ack may have been the thing that got lost.
        self._send_ack(channel, seq)
        if duplicate:
            self.stats.duplicates_suppressed += 1
        # Everything below the frame's base is resolved at the sender
        # (acked or abandoned) — deliver held frames below it and stop
        # waiting for dead gaps, instead of stalling out the hold timer.
        self._hand_over(channel.advance_base(base))
        ready = channel.accept(seq, message)
        if not ready and channel.gapped:
            # Held behind a gap: bound head-of-line blocking in case the
            # sender has given up on the missing frame.
            self._arm_gap_timer(channel)
        self._hand_over(ready)
        if not channel.gapped and channel.gap_timer is not None:
            channel.gap_timer.cancel()
            channel.gap_timer = None

    def _send_ack(self, channel: ReliableChannel, seq: int) -> None:
        """Ship an ack back over the reverse link (it can be lost too)."""
        self.stats.acks_sent += 1
        reason = self._drop_reason(channel.dst, channel.src)
        if reason is not None:
            self.stats.acks_dropped += 1
            return
        delay = self._latency.delay(channel.dst, channel.src)
        self._sim.schedule(
            delay,
            lambda: self._deliver_ack(channel, seq),
            priority=self._delivery_priority,
            group=channel.src,
        )

    def _deliver_ack(self, channel: ReliableChannel, seq: int) -> None:
        channel.ack(seq)
        self._drain_backlog(channel)

    def _send_busy(self, channel: ReliableChannel, seq: int) -> None:
        """Ship a BUSY nack back over the reverse link (lossy, like
        acks — the retransmit timer still backstops everything)."""
        if self.obs is not None:
            self.obs.event(
                "net.busy", link=f"{channel.src}->{channel.dst}", seq=seq
            )
        if self._drop_reason(channel.dst, channel.src) is not None:
            return
        delay = self._latency.delay(channel.dst, channel.src)
        self._sim.schedule(
            delay,
            lambda: self._deliver_busy(channel, seq),
            priority=self._delivery_priority,
            group=channel.src,
        )

    def _deliver_busy(self, channel: ReliableChannel, seq: int) -> None:
        """Sender reaction to receiver pushback: re-arm the retransmit
        at the *next* backoff step instead of letting the armed (shorter)
        timer burn a transmission into a known-saturated receiver."""
        entry = channel.pending.get(seq)
        if entry is None:
            return  # resolved (acked or abandoned) meanwhile
        config = self.reliable_config
        if entry.attempts > config.max_retries:
            return  # exhaustion pending; the armed timer handles it
        if entry.timer is not None:
            entry.timer.cancel()
        timeout = config.timeout_for(entry.attempts)
        if config.jitter > 0:
            timeout += self._stream("net.rto", channel.src).uniform(
                0, config.jitter
            )
        if self.obs is not None:
            self._note_backoff(channel.src, channel.dst, timeout)
        entry.timer = self._sim.schedule(
            timeout,
            lambda: self._retransmit(channel, entry),
            group=channel.src,
        )

    def _arm_gap_timer(self, channel: ReliableChannel) -> None:
        if channel.gap_timer is not None:
            return
        channel.gap_timer = self._sim.schedule(
            self.reliable_config.horizon(),
            lambda: self._skip_gap(channel),
            group=channel.dst,
        )

    def _skip_gap(self, channel: ReliableChannel) -> None:
        channel.gap_timer = None
        if not channel.gapped:
            return
        self.stats.gap_skips += 1
        if self.obs is not None:
            self.obs.event(
                "net.gap_skip", link=f"{channel.src}->{channel.dst}"
            )
        self._hand_over(channel.skip_gap())
        if channel.gapped:
            self._arm_gap_timer(channel)

    # ------------------------------------------------------------------
    # Introspection for tests and verdicts

    def pending_reliable(self) -> int:
        """Unacknowledged reliable-mode messages across all channels."""
        return sum(
            len(ch.pending)
            for ch in self._channels.values()
            if isinstance(ch, ReliableChannel)
        )

    def channel_states(self) -> Dict[str, Dict[str, int]]:
        """Per-channel state snapshots keyed ``"src->dst"`` (the metric
        registry's channel gauges read this)."""
        return {
            f"{src}->{dst}": channel.obs_state()
            for (src, dst), channel in self._channels.items()
        }
