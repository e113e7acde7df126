"""Degraded-link transport: lossy, delayed, partitionable bus delivery.

The stock :class:`~repro.middleware.rosbus.RosBus` delivers every message
instantly and losslessly, so the connection-state monitoring the paper's
Communication-based Localization ConSert performs ("monitors the internal
signal and connection states to other nearby UAVs") is never stressed.
This module inserts a per-UAV-pair :class:`LinkModel` between publishers
and subscribers: burst packet loss (any duck-typed channel with
``step(dt)`` / ``deliver()`` — the Gilbert–Elliott channel from
``repro.safedrones.communication`` fits), constant latency plus uniform
jitter drained by ``advance_clock``, a per-second bandwidth cap, and
scripted outage windows. :class:`DegradedBus` preserves the full
``RosBus`` API and provenance semantics: with no links configured it is
byte-for-byte equivalent to the perfect bus, so every existing subscriber
keeps working unchanged.

Node-level blackouts and fleet partitions are bus-level state (they model
radio failure and geographic separation, not a single pairwise link) and
are driven by the ``comm_blackout`` / ``network_partition`` fault
factories in :mod:`repro.uav.faults`.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.middleware.rosbus import Message, RosBus
from repro.obs import OBS


@dataclass
class LinkStats:
    """Delivery accounting for one link (or the whole bus)."""

    sent: int = 0
    delivered: int = 0
    dropped_loss: int = 0
    dropped_outage: int = 0
    dropped_bandwidth: int = 0
    dropped_unsubscribed: int = 0
    delayed: int = 0

    @property
    def dropped(self) -> int:
        """Total packets dropped for any reason."""
        return (
            self.dropped_loss
            + self.dropped_outage
            + self.dropped_bandwidth
            + self.dropped_unsubscribed
        )

    @property
    def delivery_ratio(self) -> float:
        """Fraction of transmitted packets that got through (1.0 pre-traffic)."""
        if self.sent == 0:
            return 1.0
        return self.delivered / self.sent


@dataclass
class LinkModel:
    """One directed-use, symmetric radio link between a pair of nodes.

    ``channel`` is any burst-loss process exposing ``step(dt)`` and
    ``deliver() -> bool`` (the SafeDrones Gilbert–Elliott channel is the
    intended implementation; the middleware layer stays technology-free by
    taking it duck-typed). ``loss_probability`` adds i.i.d. loss on top —
    either mechanism alone is typical. Latency plus uniform jitter delays
    delivery; ``bandwidth_msgs_per_s`` caps throughput per one-second
    bucket (excess packets are dropped, UDP-style).
    """

    rng: np.random.Generator | None = None
    channel: Any | None = None
    loss_probability: float = 0.0
    latency_s: float = 0.0
    jitter_s: float = 0.0
    bandwidth_msgs_per_s: float | None = None
    stats: LinkStats = field(default_factory=LinkStats)
    _bucket: int = field(default=-1, repr=False)
    _bucket_count: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss_probability <= 1.0:
            raise ValueError(
                f"loss_probability must be in [0, 1], got {self.loss_probability}"
            )
        if self.rng is None:
            self.rng = np.random.default_rng(0)

    def step(self, dt: float) -> None:
        """Advance the burst-loss channel state by ``dt`` seconds."""
        if self.channel is not None and dt > 0.0:
            self.channel.step(dt)

    def transmit(self, now: float) -> float | None:
        """One packet attempt at ``now``: delivery time, or None if lost."""
        self.stats.sent += 1
        if self.bandwidth_msgs_per_s is not None:
            bucket = math.floor(now)
            if bucket != self._bucket:
                self._bucket = bucket
                self._bucket_count = 0
            if self._bucket_count >= self.bandwidth_msgs_per_s:
                self.stats.dropped_bandwidth += 1
                return None
            self._bucket_count += 1
        if self.channel is not None and not self.channel.deliver():
            self.stats.dropped_loss += 1
            return None
        if self.loss_probability > 0.0 and self.rng.random() < self.loss_probability:
            self.stats.dropped_loss += 1
            return None
        self.stats.delivered += 1
        delay = self.latency_s
        if self.jitter_s > 0.0:
            delay += float(self.rng.uniform(0.0, self.jitter_s))
        if delay > 0.0:
            self.stats.delayed += 1
        return now + delay


def _pair(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a <= b else (b, a)


class DegradedBus(RosBus):
    """A ``RosBus`` whose deliveries traverse per-pair degraded links.

    Transport semantics: ``publish`` runs interceptors and records the
    message in the traffic log exactly like ``RosBus`` (the IDS sees what
    the transmitter put on the air), then each subscriber's copy crosses
    the link between the message's true ``origin`` node and the
    subscriber's node. Pairs without a configured :class:`LinkModel` (and
    self-delivery) are perfect — so a bare ``DegradedBus`` is byte-for-byte
    equivalent to ``RosBus``. Delayed copies queue and are delivered by
    ``advance_clock`` in timestamp order.
    """

    def __init__(self, rng: np.random.Generator | None = None) -> None:
        super().__init__()
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.stats = LinkStats()
        self._links: dict[tuple[str, str], LinkModel] = {}
        self._node_loss: dict[str, float] = {}
        self._down_nodes: set[str] = set()
        self._partitions: list[tuple[frozenset[str], frozenset[str]]] = []
        self._pending: list[tuple[float, int, Any, Message]] = []
        self._tiebreak = itertools.count()

    # ------------------------------------------------------- link wiring
    def set_link(self, node_a: str, node_b: str, link: LinkModel) -> LinkModel:
        """Install ``link`` on the (symmetric) pair ``node_a``/``node_b``."""
        if node_a == node_b:
            raise ValueError("a node has no link to itself")
        self._links[_pair(node_a, node_b)] = link
        return link

    # ------------------------------------------- node/fleet level faults
    def set_node_down(self, node: str, down: bool = True) -> None:
        """Radio blackout: while down, nothing reaches or leaves ``node``."""
        if down:
            self._down_nodes.add(node)
        else:
            self._down_nodes.discard(node)

    def set_node_loss(self, node: str, loss_probability: float) -> None:
        """Extra i.i.d. loss applied to every packet to or from ``node``."""
        if not 0.0 <= loss_probability <= 1.0:
            raise ValueError(
                f"loss_probability must be in [0, 1], got {loss_probability}"
            )
        if loss_probability == 0.0:
            self._node_loss.pop(node, None)
        else:
            self._node_loss[node] = loss_probability

    def add_partition(
        self, group_a: tuple[str, ...], group_b: tuple[str, ...]
    ) -> tuple[frozenset[str], frozenset[str]]:
        """Partition the network: no traffic crosses between the groups.

        Returns a handle for :meth:`remove_partition`.
        """
        handle = (frozenset(group_a), frozenset(group_b))
        if handle[0] & handle[1]:
            raise ValueError("partition groups must be disjoint")
        self._partitions.append(handle)
        return handle

    def remove_partition(
        self, handle: tuple[frozenset[str], frozenset[str]]
    ) -> None:
        """Heal a partition previously created by :meth:`add_partition`."""
        self._partitions.remove(handle)

    def partitioned(self, node_a: str, node_b: str) -> bool:
        """Whether an active partition separates the two nodes."""
        return any(
            (node_a in a and node_b in b) or (node_a in b and node_b in a)
            for a, b in self._partitions
        )

    # ------------------------------------------------------------ transport
    def _admit(self, origin: str, dest: str, now: float) -> float | None:
        """Delivery time for one subscriber copy, or None when dropped."""
        if origin == dest:
            return now
        if origin in self._down_nodes or dest in self._down_nodes:
            self.stats.dropped_outage += 1
            return None
        if self.partitioned(origin, dest):
            self.stats.dropped_outage += 1
            return None
        node_loss = self._node_loss
        if node_loss:
            p_keep = (1.0 - node_loss.get(origin, 0.0)) * (
                1.0 - node_loss.get(dest, 0.0)
            )
            if p_keep < 1.0 and self.rng.random() >= p_keep:
                self.stats.dropped_loss += 1
                return None
        link = self._links.get(_pair(origin, dest))
        if link is None:
            return now
        deliver_at = link.transmit(now)
        if deliver_at is None:
            self.stats.dropped_loss += 1
        return deliver_at

    def publish(
        self,
        topic: str,
        data: Any,
        sender: str,
        origin: str | None = None,
        stamp: float | None = None,
    ) -> Message | None:
        """Publish with per-subscriber link traversal (see class docstring).

        Bus-level ``stats.delivered`` counts subscriber callbacks that
        actually ran — a delayed copy counts when it drains, and a copy
        whose subscriber unsubscribed while it was in flight counts
        under ``stats.dropped_unsubscribed`` instead (it never reached
        anyone). The per-topic observability counters follow the same
        contract as :meth:`RosBus.publish`.
        """
        message = Message(
            topic=topic,
            data=data,
            sender=sender,
            origin=origin if origin is not None else sender,
            seq=next(self._seq),
            stamp=stamp if stamp is not None else self.clock,
        )
        message = self._intercept(message)
        if message is None:
            return None
        self.traffic.record(message)
        obs_on = OBS.enabled
        if obs_on:
            OBS.metrics.inc("bus_published_total", topic=topic)
        for sub in list(self._subs.get(topic, ())):
            if not sub.active:
                continue
            self.stats.sent += 1
            deliver_at = self._admit(message.origin, sub.node, self.clock)
            if deliver_at is None:
                if obs_on:
                    OBS.metrics.inc(
                        "bus_dropped_total", topic=topic, reason="link"
                    )
                continue
            if deliver_at <= self.clock:
                self.stats.delivered += 1
                if obs_on:
                    self._count_delivery(message)
                sub.callback(message)
            else:
                heapq.heappush(
                    self._pending,
                    (deliver_at, next(self._tiebreak), sub, message),
                )
        return message

    def advance_clock(self, now: float) -> None:
        """Advance time, step every link's channel, drain due deliveries."""
        dt = now - self.clock
        super().advance_clock(now)
        if dt > 0.0:
            for link in self._links.values():
                link.step(dt)
        while self._pending and self._pending[0][0] <= now:
            _, _, sub, message = heapq.heappop(self._pending)
            if sub.active:
                self.stats.delivered += 1
                if OBS.enabled:
                    self._count_delivery(message)
                sub.callback(message)
            else:
                # The subscriber went away while the copy was in flight:
                # nothing was delivered, so don't count one.
                self.stats.dropped_unsubscribed += 1
                if OBS.enabled:
                    OBS.metrics.inc(
                        "bus_dropped_total",
                        topic=message.topic,
                        reason="unsubscribed",
                    )
