"""Collaborative position estimation from multi-UAV sightings.

Each collaborator sighting (bearing, elevation, monocular range) converts
to a position hypothesis for the affected UAV by spherical-to-ENU
trigonometry. Hypotheses from all collaborators fuse by inverse-variance
weighting, and uncertainty shrinks as more collaborators contribute (the
basis for the "Collaborative Navigation with accuracy <0.75 m" guarantee
in the Fig. 1 ConSert).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.localization.detection import DroneDetection


@dataclass(frozen=True)
class Sighting:
    """A detection annotated with the observer's own position."""

    detection: DroneDetection
    observer_enu: tuple[float, float, float]


@dataclass(frozen=True)
class PositionEstimate:
    """Fused position estimate for the affected UAV."""

    enu: tuple[float, float, float]
    sigma_m: float
    n_sightings: int
    stamp: float


def sighting_to_position(sighting: Sighting) -> tuple[tuple[float, float, float], float]:
    """Convert one sighting to an ENU position hypothesis and its sigma.

    The dominant error is the monocular range; angular errors contribute
    range * sin(sigma_angle), folded into the hypothesis sigma.
    """
    det = sighting.detection
    bearing = math.radians(det.bearing_deg)
    elevation = math.radians(det.elevation_deg)
    horizontal = det.range_m * math.cos(elevation)
    east = sighting.observer_enu[0] + horizontal * math.sin(bearing)
    north = sighting.observer_enu[1] + horizontal * math.cos(bearing)
    up = sighting.observer_enu[2] + det.range_m * math.sin(elevation)
    angular_sigma = det.range_m * math.sin(math.radians(1.5))
    sigma = math.hypot(det.range_sigma_m, angular_sigma)
    return (east, north, up), sigma


@dataclass
class CollaborativeLocalizer:
    """Fuses sightings of one affected UAV into a position estimate.

    Sightings older than ``max_age_s`` are discarded each estimate —
    collaborators re-sight the target continuously, so staleness tracks
    the target's motion.
    """

    target_id: str
    max_age_s: float = 2.0
    sightings: list[Sighting] = field(default_factory=list)
    estimates: list[PositionEstimate] = field(default_factory=list)

    def add_sighting(self, sighting: Sighting) -> None:
        """Record a sighting of the target from any collaborator."""
        if sighting.detection.target_id != self.target_id:
            raise ValueError(
                f"sighting of {sighting.detection.target_id!r}, "
                f"localizer tracks {self.target_id!r}"
            )
        self.sightings.append(sighting)

    def estimate(self, now: float) -> PositionEstimate | None:
        """Inverse-variance fusion of all fresh sightings; None if empty."""
        fresh = [
            s for s in self.sightings if now - s.detection.stamp <= self.max_age_s
        ]
        self.sightings = fresh
        if not fresh:
            return None
        weights = []
        hypotheses = []
        for sighting in fresh:
            position, sigma = sighting_to_position(sighting)
            hypotheses.append(position)
            weights.append(1.0 / max(sigma, 1e-6) ** 2)
        total_w = sum(weights)
        fused = tuple(
            sum(w * h[i] for w, h in zip(weights, hypotheses)) / total_w
            for i in range(3)
        )
        fused_sigma = math.sqrt(1.0 / total_w)
        estimate = PositionEstimate(
            enu=fused, sigma_m=fused_sigma, n_sightings=len(fresh), stamp=now
        )
        self.estimates.append(estimate)
        return estimate

    @property
    def latest(self) -> PositionEstimate | None:
        """The most recent fused estimate."""
        return self.estimates[-1] if self.estimates else None
