"""The Security EDDI engine.

"Each Security EDDI is implemented as a Python script tailored to a
specific attack tree ... Upon detection, the script's logic navigates the
attack tree structure, tracing the attack path from the leaf nodes toward
the root. Reaching the root node implies the adversary's end goal is
achieved, indicating a critical security event." (Sec. III-B)

The engine subscribes to ``ids/alerts/#`` on the MQTT broker, maps each
alert to the matching attack-tree leaves, re-evaluates the tree, and emits
a :class:`SecurityEvent` when the root goal becomes satisfied. Responses
(e.g. triggering Collaborative Localization via the ConSert layer) attach
as callbacks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.security.attack_trees import AttackTree
from repro.security.broker import MqttBroker
from repro.security.ids import Alert


@dataclass(frozen=True)
class SecurityEvent:
    """A critical security event: the attack tree root goal was reached."""

    tree_name: str
    stamp: float
    attack_path: list[str]
    triggering_alert: Alert
    severity: str
    mitigation: str


@dataclass
class SecurityEddi:
    """Runtime security monitor bound to one attack tree."""

    tree: AttackTree
    broker: MqttBroker
    on_critical: list[Callable[[SecurityEvent], None]] = field(default_factory=list)
    events: list[SecurityEvent] = field(default_factory=list)
    alerts_seen: list[Alert] = field(default_factory=list)
    _root_reported: bool = False

    def __post_init__(self) -> None:
        self._subscription = self.broker.subscribe("ids/alerts/#", self._on_alert)

    def close(self) -> None:
        """Unsubscribe from the broker, which otherwise holds this monitor."""
        self.broker.unsubscribe(self._subscription)

    @property
    def root_achieved(self) -> bool:
        """Whether the monitored attack's end goal has been observed."""
        return self.tree.root_achieved()

    def reset(self) -> None:
        """Clear runtime state (new mission)."""
        self.tree.reset()
        self._root_reported = False
        self.events.clear()
        self.alerts_seen.clear()

    # ----------------------------------------------------------- internals
    def _on_alert(self, topic: str, payload: Alert) -> None:
        if not isinstance(payload, Alert):
            return
        self.alerts_seen.append(payload)
        matched = self.tree.leaf_by_alert_type(payload.alert_type)
        if not matched:
            return
        for leaf in matched:
            self.tree.mark_achieved(leaf.node_id)
        if not self._root_reported and self.tree.root_achieved():
            self._root_reported = True
            event = SecurityEvent(
                tree_name=self.tree.name,
                stamp=payload.stamp,
                attack_path=self.tree.attack_path(),
                triggering_alert=payload,
                severity=self.tree.root.severity,
                mitigation=self.tree.root.mitigation,
            )
            self.events.append(event)
            for callback in self.on_critical:
                callback(event)
