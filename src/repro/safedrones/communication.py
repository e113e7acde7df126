"""Communication-link reliability: Gilbert–Elliott channel model.

SafeDrones' reliability estimation covers "Reliable Propulsion,
Communication, Energy Control" (paper Fig. 1). This module supplies the
communication third: the classic two-state Gilbert–Elliott Markov channel
(GOOD/BAD burst states with per-state packet loss), plus a runtime link
monitor that estimates the current state from observed delivery outcomes
and produces the link-quality guarantee the comm-localization ConSert
consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np



@dataclass
class GilbertElliottChannel:
    """Two-state burst-loss channel.

    ``p_good_to_bad`` / ``p_bad_to_good`` are per-second transition rates;
    ``loss_good`` / ``loss_bad`` are packet-loss probabilities in each
    state. Step the channel, then ask it whether a packet survives.
    """

    rng: np.random.Generator
    p_good_to_bad: float = 0.01
    p_bad_to_good: float = 0.2
    loss_good: float = 0.01
    loss_bad: float = 0.6
    in_bad_state: bool = False

    def __post_init__(self) -> None:
        for name in ("p_good_to_bad", "p_bad_to_good", "loss_good", "loss_bad"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")

    def step(self, dt: float) -> None:
        """Advance the channel state by ``dt`` seconds."""
        if dt <= 0.0:
            raise ValueError("dt must be positive")
        if self.in_bad_state:
            if self.rng.random() < 1.0 - np.exp(-self.p_bad_to_good * dt):
                self.in_bad_state = False
        else:
            if self.rng.random() < 1.0 - np.exp(-self.p_good_to_bad * dt):
                self.in_bad_state = True

    def deliver(self) -> bool:
        """Whether one packet sent now gets through."""
        loss = self.loss_bad if self.in_bad_state else self.loss_good
        return bool(self.rng.random() >= loss)

    @property
    def stationary_bad_fraction(self) -> float:
        """Long-run fraction of time spent in the BAD state."""
        total = self.p_good_to_bad + self.p_bad_to_good
        if total == 0.0:
            return 1.0 if self.in_bad_state else 0.0
        return self.p_good_to_bad / total

    def expected_delivery_ratio(self) -> float:
        """Long-run packet delivery ratio."""
        bad = self.stationary_bad_fraction
        return (1.0 - bad) * (1.0 - self.loss_good) + bad * (1.0 - self.loss_bad)


@dataclass(frozen=True)
class LinkAssessment:
    """One link-monitor output."""

    stamp: float
    delivery_ratio: float
    estimated_bad: bool
    link_ok: bool


@dataclass
class CommLinkMonitor:
    """Runtime link-quality estimator over observed delivery outcomes.

    Maintains a sliding window of packet outcomes; the link is OK while
    the windowed delivery ratio stays at or above ``ok_threshold``. This
    is the evidence source for the ``comm_links_ok`` ConSert input.
    """

    window_size: int = 50
    ok_threshold: float = 0.85
    outcomes: list[bool] = field(default_factory=list)

    def record(self, delivered: bool) -> None:
        """Record one packet outcome."""
        self.outcomes.append(delivered)
        if len(self.outcomes) > self.window_size:
            del self.outcomes[: -self.window_size]

    def assess(self, now: float) -> LinkAssessment:
        """Current link verdict; optimistic before any traffic."""
        if not self.outcomes:
            ratio = 1.0
        else:
            ratio = sum(self.outcomes) / len(self.outcomes)
        return LinkAssessment(
            stamp=now,
            delivery_ratio=ratio,
            estimated_bad=ratio < self.ok_threshold,
            link_ok=ratio >= self.ok_threshold,
        )
