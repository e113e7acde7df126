"""Attack injectors against the ROS-like bus.

Reproduces data injection / message spoofing, the threat the paper's
Fig. 6 experiment attacks ROS deployments with (Sec. I, Sec. V-C). An
attack is a stateful object stepped by the simulation between
``t_start`` and ``t_stop``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.middleware.rosbus import RosBus


@dataclass
class Attacker:
    """Base class for scripted attacks on the bus.

    Subclasses override :meth:`step`. ``active_at`` gates the attack window.
    """

    bus: RosBus
    t_start: float
    t_stop: float = float("inf")
    name: str = "attacker"

    def active_at(self, now: float) -> bool:
        """Whether the attack window covers simulation time ``now``."""
        return self.t_start <= now < self.t_stop

    def step(self, now: float) -> None:
        """Advance the attack by one simulation step (override)."""


@dataclass
class SpoofingAttack(Attacker):
    """ROS message spoofing: inject falsified data under a victim's identity.

    This is the attack of the paper's Fig. 6: "falsified data are sent to
    manipulate the UAVs area mapping system". Each step inside the attack
    window publishes a forged message on ``topic`` claiming to come from
    ``spoofed_sender`` while the transport records the true ``name`` origin.

    ``payload_fn(now)`` produces the falsified data — e.g. a displaced GPS
    fix or a manipulated waypoint.
    """

    topic: str = "/uav/pose"
    spoofed_sender: str = "uav"
    payload_fn: Callable[[float], Any] = lambda now: None
    rate_hz: float = 10.0
    _next_emit: float = field(default=None, repr=False)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self._next_emit is None:
            self._next_emit = self.t_start

    def step(self, now: float) -> None:
        """Inject forged messages at ``rate_hz`` while the window is active."""
        if not self.active_at(now):
            return
        while now >= self._next_emit:
            self.bus.publish(
                topic=self.topic,
                data=self.payload_fn(now),
                sender=self.spoofed_sender,
                origin=self.name,
                stamp=now,
            )
            self._next_emit += 1.0 / self.rate_hz
