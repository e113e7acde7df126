"""In-process ROS-style topic bus with message provenance.

ROS's publish/subscribe architecture "brings certain security
vulnerabilities, such as the risk of eavesdropping, man-in-the-middle
attacks, and data injection" (paper Sec. I). To keep the data-injection
surface that the spoofing attack uses, the bus performs **no
authentication**: any node handle may publish to any topic. Every
delivered message carries provenance metadata (claimed sender, true
origin, sequence number, timestamp) that the intrusion-detection system
inspects from an interceptor — mirroring how a network IDS sees packet
headers that application code does not. The bus itself keeps no message:
once ``publish`` returns, a message lives on only where a subscriber or
an interceptor stored it.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

from repro.obs import OBS


class Message(NamedTuple):
    """A single message delivered on the bus.

    ``sender`` is the node name the publisher *claims*; ``origin`` is the
    true producing node recorded by the transport. Under normal operation
    the two match; a spoofing attacker forges ``sender`` while ``origin``
    reveals the injection point (only visible to transport-level observers
    such as the IDS, never to ordinary subscribers).
    """

    topic: str
    data: Any
    sender: str
    origin: str
    seq: int
    stamp: float

    @property
    def is_forged(self) -> bool:
        """True when the claimed sender differs from the true origin."""
        return self.sender != self.origin


def _unsubscribed(message: Message) -> None:
    """The callback of an unsubscribed :class:`Subscription` (never called)."""


@dataclass
class Subscription:
    """A live subscription; deactivate with :meth:`unsubscribe`."""

    topic: str
    node: str
    callback: Callable[[Message], None]
    active: bool = True

    def unsubscribe(self) -> None:
        """Stop delivering messages to this subscription.

        The callback goes too: it is often a bound method of the
        subscriber, which holds the bus, so keeping it would tie every
        unsubscribed owner to the bus in a reference cycle.
        """
        self.active = False
        self.callback = _unsubscribed


class RosBus:
    """Topic-based publish/subscribe bus shared by all agents in a simulation.

    The bus is synchronous: ``publish`` invokes every active subscriber
    callback before returning, in subscription order, matching the
    single-threaded stepping of the simulation.
    """

    def __init__(self) -> None:
        self._subs: dict[str, list[Subscription]] = defaultdict(list)
        self._seq = itertools.count()
        self._interceptors: list[Callable[[Message], Message | None]] = []
        self.clock = 0.0

    def advance_clock(self, now: float) -> None:
        """Set the bus timestamp used for subsequently published messages."""
        self.clock = now

    def subscribe(
        self, topic: str, node: str, callback: Callable[[Message], None]
    ) -> Subscription:
        """Register ``callback`` for messages on ``topic``; returns a handle."""
        sub = Subscription(topic=topic, node=node, callback=callback)
        self._subs[topic].append(sub)
        return sub

    def add_interceptor(self, fn: Callable[[Message], "Message | None"]) -> None:
        """Install a transport-level interceptor (the swarm's message census
        and the IDS are two).

        Interceptors run in installation order, before any subscriber; each
        may return a replacement message or ``None`` to drop the message
        entirely. An interceptor therefore sees each message as the ones
        installed before it left it, and cannot tell whether a later one
        drops it.
        """
        self._interceptors.append(fn)

    def publish(
        self,
        topic: str,
        data: Any,
        sender: str,
        origin: str | None = None,
        stamp: float | None = None,
    ) -> Message | None:
        """Publish ``data`` on ``topic``.

        ``origin`` defaults to ``sender`` (honest publication). Returns the
        delivered message, or ``None`` if an interceptor dropped it.

        Observability contract (when :data:`repro.obs.OBS` is enabled):
        ``bus_published_total{topic}`` counts exactly the messages that
        pass every interceptor — interceptor-dropped messages count under
        ``bus_dropped_total{topic, reason=intercepted}`` instead, and
        never both. ``bus_delivered_total{topic}`` counts subscriber
        callbacks actually invoked (inactive subscriptions receive, and
        count, nothing).
        """
        message = Message(
            topic,
            data,
            sender,
            origin if origin is not None else sender,
            next(self._seq),
            stamp if stamp is not None else self.clock,
        )
        if self._interceptors:
            message = self._intercept(message)
            if message is None:
                return None
        obs_on = OBS.enabled
        if obs_on:
            OBS.metrics.inc("bus_published_total", topic=topic)
        subs = self._subs.get(topic)
        if subs:
            for sub in list(subs):
                if sub.active:
                    if obs_on:
                        self._count_delivery(message)
                    sub.callback(message)
        return message

    def publish_many(
        self, items: list[tuple[str, Any, str]], stamp: float
    ) -> None:
        """Publish a batch of ``(topic, data, sender)`` honest messages.

        Semantically identical to calling :meth:`publish` once per item in
        order (same messages, sequence numbers, interceptor calls and
        subscriber callbacks); exists because per-call overhead dominates
        when the vectorized fleet engine emits fleet-size telemetry
        batches every step. Subclasses that override :meth:`publish`
        (e.g. a lossy transport) are routed through their override.
        """
        if type(self).publish is not RosBus.publish:
            for topic, data, sender in items:
                self.publish(topic, data, sender, None, stamp)
            return
        interceptors = self._interceptors
        subs_map = self._subs
        seq = self._seq
        obs_on = OBS.enabled
        for topic, data, sender in items:
            message = Message(topic, data, sender, sender, next(seq), stamp)
            if interceptors:
                message = self._intercept(message)
                if message is None:
                    continue
            if obs_on:
                OBS.metrics.inc("bus_published_total", topic=topic)
            subs = subs_map.get(topic)
            if subs:
                for sub in list(subs):
                    if sub.active:
                        if obs_on:
                            self._count_delivery(message)
                        sub.callback(message)

    def _intercept(self, message: Message) -> Message | None:
        """Run the interceptor chain; accounts for transport-level drops."""
        for interceptor in self._interceptors:
            replaced = interceptor(message)
            if replaced is None:
                if OBS.enabled:
                    OBS.metrics.inc(
                        "bus_dropped_total",
                        topic=message.topic,
                        reason="intercepted",
                    )
                return None
            message = replaced
        return message

    def _count_delivery(self, message: Message) -> None:
        """Metric hook for one subscriber callback about to be invoked.

        Callers guard on ``OBS.enabled`` — this is never reached when
        observability is off.
        """
        OBS.metrics.inc("bus_delivered_total", topic=message.topic)
        OBS.metrics.observe(
            "bus_delivery_latency_s",
            max(0.0, self.clock - message.stamp),
            topic=message.topic,
        )

    def topics(self) -> list[str]:
        """All topics with at least one subscription, sorted."""
        return sorted(t for t, subs in self._subs.items() if any(s.active for s in subs))
