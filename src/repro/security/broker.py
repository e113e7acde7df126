"""In-process MQTT-style broker for the security alert pipeline.

The paper's Security EDDIs listen for IDS alerts on MQTT topics. This
broker reproduces the MQTT topic semantics the pipeline needs: exact and
wildcard (``+`` single level, ``#`` multi level) subscriptions, retained
messages, and synchronous delivery.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable


def topic_matches(pattern: str, topic: str) -> bool:
    """MQTT topic matching with ``+`` and ``#`` wildcards."""
    p_levels = pattern.split("/")
    t_levels = topic.split("/")
    for i, p in enumerate(p_levels):
        if p == "#":
            return True
        if i >= len(t_levels):
            return False
        if p != "+" and p != t_levels[i]:
            return False
    return len(p_levels) == len(t_levels)


def _unsubscribed(topic: str, payload: Any) -> None:
    """The callback of an unsubscribed subscription (never called)."""


@dataclass
class _BrokerSubscription:
    pattern: str
    callback: Callable[[str, Any], None]
    active: bool = True


@dataclass
class MqttBroker:
    """Synchronous topic broker with retained-message support."""

    _subs: list[_BrokerSubscription] = field(default_factory=list)
    retained: dict[str, Any] = field(default_factory=dict)
    published: list[tuple[str, Any]] = field(default_factory=list)

    def subscribe(
        self, pattern: str, callback: Callable[[str, Any], None]
    ) -> _BrokerSubscription:
        """Subscribe a callback; retained messages replay immediately."""
        sub = _BrokerSubscription(pattern=pattern, callback=callback)
        self._subs.append(sub)
        for topic, payload in self.retained.items():
            if topic_matches(pattern, topic):
                callback(topic, payload)
        return sub

    def unsubscribe(self, sub: _BrokerSubscription) -> None:
        """Deactivate a subscription and drop its callback.

        The callback is often a bound method of a subscriber that holds
        the broker (and this handle); keeping it would be a cycle.
        """
        sub.active = False
        sub.callback = _unsubscribed

    def publish(self, topic: str, payload: Any, retain: bool = False) -> int:
        """Publish to all matching subscribers; returns delivery count."""
        if "+" in topic or "#" in topic:
            raise ValueError("publish topics may not contain wildcards")
        self.published.append((topic, payload))
        if retain:
            self.retained[topic] = payload
        delivered = 0
        for sub in list(self._subs):
            if sub.active and topic_matches(sub.pattern, topic):
                sub.callback(topic, payload)
                delivered += 1
        return delivered
