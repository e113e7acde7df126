"""Rule-based intrusion detection over the simulated ROS traffic.

The IDS plays the role of the paper's network IDS: it inspects transport-
level traffic (where per-message origin is visible, like source addresses
in real packet captures) and "publishes alerts upon detecting suspicious
activity" to MQTT topics that Security EDDIs subscribe to.

The IDS is a bus interceptor: it queues each message as it passes and
hands it back unchanged, and ``scan`` checks the queue. It therefore sees
traffic as it leaves the interceptors installed before it (a
man-in-the-middle installed earlier shows its rewrite; one installed
later acts unseen), and nothing published before it was built.

Built-in rules:

``provenance``
    The claimed application sender maps to a known producing host; a
    mismatch raises ``message_injection``.
``membership``
    Messages originating from hosts outside the registered fleet raise
    ``unauthorized_publisher``.
``rate``
    A topic exceeding its nominal publish rate (e.g. doubled by a parallel
    spoofer) raises ``rate_anomaly``.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import InitVar, dataclass, field
from typing import Callable

from repro.middleware.rosbus import Message, RosBus
from repro.obs import OBS, event
from repro.security.broker import MqttBroker


@dataclass(frozen=True)
class Alert:
    """One IDS alert published on ``ids/alerts/<alert_type>``."""

    alert_type: str
    topic: str
    suspect: str
    detail: str
    stamp: float


@dataclass
class IdsRule:
    """A custom per-message rule: returns an alert type or None."""

    name: str
    check: Callable[[Message], "str | None"]


@dataclass
class IntrusionDetectionSystem:
    """Scans new bus traffic each step and publishes alerts to the broker.

    ``bus`` is not kept: the IDS installs its interceptor on it and holds
    only the messages published since the last scan.
    """

    bus: InitVar[RosBus]
    broker: MqttBroker
    known_nodes: set[str] = field(default_factory=set)
    rate_limits_hz: dict[str, float] = field(default_factory=dict)
    custom_rules: list[IdsRule] = field(default_factory=list)
    rate_window_s: float = 2.0
    alerts: list[Alert] = field(default_factory=list)
    _pending: list[Message] = field(default_factory=list)
    _recent: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))

    def __post_init__(self, bus: RosBus) -> None:
        bus.add_interceptor(self._observe)

    def _observe(self, message: Message) -> Message:
        """Interceptor: queue ``message`` for the next scan, pass it on."""
        self._pending.append(message)
        return message

    def register_node(self, node: str) -> None:
        """Declare a legitimate fleet node (UAV, GCS, platform service)."""
        self.known_nodes.add(node)

    # ----------------------------------------------------------------- scan
    def scan(self, now: float) -> list[Alert]:
        """Inspect traffic published since the previous scan."""
        new_alerts: list[Alert] = []
        messages, self._pending = self._pending, []
        for message in messages:
            new_alerts.extend(self._check_message(message))
            new_alerts.extend(self._check_rate(message, now))
        obs_on = OBS.enabled
        for alert in new_alerts:
            self.alerts.append(alert)
            self.broker.publish(f"ids/alerts/{alert.alert_type}", alert)
            if obs_on:
                OBS.metrics.inc("ids_alerts_total", type=alert.alert_type)
                event(
                    "warning", "security.ids", alert.alert_type,
                    sim_time=alert.stamp, topic=alert.topic,
                    suspect=alert.suspect,
                )
        return new_alerts

    def _check_message(self, message: Message) -> list[Alert]:
        alerts = []
        if message.origin not in self.known_nodes:
            alerts.append(
                Alert(
                    alert_type="unauthorized_publisher",
                    topic=message.topic,
                    suspect=message.origin,
                    detail=f"origin {message.origin!r} is not a registered fleet node",
                    stamp=message.stamp,
                )
            )
        if message.is_forged:
            alerts.append(
                Alert(
                    alert_type="message_injection",
                    topic=message.topic,
                    suspect=message.origin,
                    detail=(
                        f"claimed sender {message.sender!r} but true origin "
                        f"{message.origin!r}"
                    ),
                    stamp=message.stamp,
                )
            )
        for rule in self.custom_rules:
            alert_type = rule.check(message)
            if alert_type is not None:
                alerts.append(
                    Alert(
                        alert_type=alert_type,
                        topic=message.topic,
                        suspect=message.origin,
                        detail=f"custom rule {rule.name!r} matched",
                        stamp=message.stamp,
                    )
                )
        return alerts

    def _check_rate(self, message: Message, now: float) -> list[Alert]:
        limit = self.rate_limits_hz.get(message.topic)
        if limit is None:
            return []
        window = self._recent[message.topic]
        window.append(message.stamp)
        cutoff = now - self.rate_window_s
        kept = [t for t in window if t >= cutoff]
        self._recent[message.topic] = kept
        # Normalize by the span the kept samples actually cover, not the
        # nominal window: before a stream has been up for a full window,
        # dividing by rate_window_s underestimates the rate and lets a
        # flood in the first seconds go undetected. The floor keeps a
        # near-instantaneous burst from reading as an unbounded rate.
        span = now - kept[0] if kept else self.rate_window_s
        span = min(max(span, 0.25 * self.rate_window_s), self.rate_window_s)
        observed_hz = len(kept) / span
        if observed_hz > limit:
            return [
                Alert(
                    alert_type="rate_anomaly",
                    topic=message.topic,
                    suspect=message.origin,
                    detail=f"rate {observed_hz:.1f} Hz exceeds limit {limit:.1f} Hz",
                    stamp=message.stamp,
                )
            ]
        return []
