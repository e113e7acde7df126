"""Reliable point-to-point delivery on top of the (degraded) bus.

The telemetry topics stay fire-and-forget — loss there is a *signal* the
assurance layer consumes. Mission-critical exchanges (task handovers,
collaborative-landing setpoints) instead ride a :class:`ReliableChannel`:
per-message sequence numbers with gap detection and in-order delivery,
acknowledgements, retransmission with capped exponential backoff, and a
sustained-silence timeout that raises an explicit link-down signal for
the Communication-based Localization ConSert instead of stalling forever.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.middleware.rosbus import Message, RosBus, Subscription


@dataclass
class ReliableChannelStats:
    """Protocol counters for one channel endpoint."""

    sent: int = 0
    retries: int = 0
    acked: int = 0
    delivered: int = 0
    duplicates: int = 0
    gaps: int = 0


@dataclass
class _PendingSend:
    seq: int
    data: Any
    first_sent: float
    next_retry: float
    backoff_s: float
    attempts: int = 1


@dataclass
class ReliableChannel:
    """One endpoint of a reliable ``local`` → ``peer`` message stream.

    Both nodes instantiate the channel with mirrored ``local``/``peer``;
    each endpoint then both sends (``send`` + periodic ``step``) and
    receives (in-order ``on_deliver`` callbacks). Retransmission backoff
    doubles from ``retry_after_s`` up to ``max_backoff_s`` — so the retry
    count during an outage grows linearly with outage duration at a known
    bounded rate, never exponentially with queue depth. When the oldest
    unacked message has waited longer than ``link_down_after_s`` the
    channel declares the link down (``on_link_change(False)``); the first
    acknowledgement that makes it back declares it up again.
    """

    bus: RosBus
    local: str
    peer: str
    name: str = "reliable"
    on_deliver: Callable[[int, Any], None] | None = None
    on_link_change: Callable[[bool], None] | None = None
    retry_after_s: float = 0.5
    max_backoff_s: float = 4.0
    link_down_after_s: float = 6.0
    link_up: bool = True
    stats: ReliableChannelStats = field(default_factory=ReliableChannelStats)
    _seq: itertools.count = field(default_factory=itertools.count, repr=False)
    _pending: dict[int, _PendingSend] = field(default_factory=dict, repr=False)
    _expected: int = field(default=0, repr=False)
    _reorder: dict[int, Any] = field(default_factory=dict, repr=False)
    _subs: list[Subscription] = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        if self.local == self.peer:
            raise ValueError("a channel needs two distinct endpoints")
        self._subs = [
            self.bus.subscribe(
                self._topic(self.peer, self.local, "data"), self.local, self._on_data
            ),
            self.bus.subscribe(
                self._topic(self.local, self.peer, "ack"), self.local, self._on_ack
            ),
        ]

    def _topic(self, src: str, dst: str, kind: str) -> str:
        # Stream topics are named by the data direction; acks for the
        # src->dst stream are published by dst on the matching ack topic.
        return f"/{self.name}/{src}/{dst}/{kind}"

    # ---------------------------------------------------------------- send
    def send(self, data: Any, now: float) -> int:
        """Queue ``data`` for reliable delivery; returns its sequence number."""
        seq = next(self._seq)
        self._pending[seq] = _PendingSend(
            seq=seq,
            data=data,
            first_sent=now,
            next_retry=now + self.retry_after_s,
            backoff_s=self.retry_after_s,
        )
        self.stats.sent += 1
        self._publish(seq, data)
        return seq

    def _publish(self, seq: int, data: Any) -> None:
        self.bus.publish(
            self._topic(self.local, self.peer, "data"),
            {"seq": seq, "data": data},
            sender=self.local,
        )

    def step(self, now: float) -> None:
        """Retransmit overdue messages; update the link-down verdict."""
        if not self._pending:
            return
        # Snapshot: on a synchronous bus the retransmit's ack can arrive
        # inline and pop entries from _pending while we iterate.
        for pending in list(self._pending.values()):
            if pending.next_retry <= now:
                self._publish(pending.seq, pending.data)
                pending.attempts += 1
                self.stats.retries += 1
                pending.backoff_s = min(pending.backoff_s * 2.0, self.max_backoff_s)
                pending.next_retry = now + pending.backoff_s
        if self._pending:
            oldest = min(p.first_sent for p in self._pending.values())
            if now - oldest > self.link_down_after_s:
                self._set_link(False)

    @property
    def in_flight(self) -> int:
        """Messages sent but not yet acknowledged."""
        return len(self._pending)

    # ------------------------------------------------------------- receive
    def _on_data(self, message: Message) -> None:
        seq = int(message.data["seq"])
        # Always (re-)ack: a lost ack shows up here as a duplicate data copy.
        self.bus.publish(
            self._topic(self.peer, self.local, "ack"),
            {"seq": seq},
            sender=self.local,
        )
        if seq < self._expected or seq in self._reorder:
            self.stats.duplicates += 1
            return
        if seq > self._expected:
            self.stats.gaps += 1
            self._reorder[seq] = message.data["data"]
            return
        self._deliver(seq, message.data["data"])
        while self._expected in self._reorder:
            self._deliver(self._expected, self._reorder.pop(self._expected))

    def _deliver(self, seq: int, data: Any) -> None:
        self._expected = seq + 1
        self.stats.delivered += 1
        if self.on_deliver is not None:
            self.on_deliver(seq, data)

    def _on_ack(self, message: Message) -> None:
        seq = int(message.data["seq"])
        if self._pending.pop(seq, None) is not None:
            self.stats.acked += 1
        self._set_link(True)

    def _set_link(self, up: bool) -> None:
        if up != self.link_up:
            self.link_up = up
            if self.on_link_change is not None:
                self.on_link_change(up)

    def close(self) -> None:
        """Unsubscribe both endpoints' topics (e.g. on UAV shutdown)."""
        for sub in self._subs:
            sub.unsubscribe()
