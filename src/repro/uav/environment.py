"""Environment model: wind field with gusts, visibility, ambient profile.

The paper's testbed UAVs carry "temperature, wind, and motion sensors"
and the DJI simulator lets operators "adjust wind speed" (Sec. IV-B).
This module supplies the environment those sensors sample: a mean wind
vector with a first-order gust process (Dryden-flavoured coloured noise),
an ambient temperature profile, and a visibility state that SINADRA's
situation inputs consume.

Wind physically displaces the fleet: :meth:`Environment.wind_vector`
returns the instantaneous wind, and :meth:`apply_wind_drift` adds the
corresponding drift to a UAV's dynamics — unopposed for the simple
kinematic controller, which is exactly why coverage at high wind degrades
and the energy draw rises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass
class GustProcess:
    """First-order (Ornstein–Uhlenbeck) gust magnitude around a mean."""

    rng: np.random.Generator
    mean_mps: float = 3.0
    gust_sigma_mps: float = 1.0
    correlation_time_s: float = 20.0
    state: float = 0.0

    def step(self, dt: float) -> float:
        """Advance the gust state; returns the current wind magnitude."""
        if dt <= 0.0:
            raise ValueError("dt must be positive")
        alpha = math.exp(-dt / self.correlation_time_s)
        noise_scale = self.gust_sigma_mps * math.sqrt(1.0 - alpha * alpha)
        self.state = alpha * self.state + float(self.rng.normal(0.0, noise_scale))
        return max(0.0, self.mean_mps + self.state)


@dataclass
class Environment:
    """The mission environment sampled by sensors and stepping UAVs."""

    rng: np.random.Generator
    wind_direction_deg: float = 270.0  # wind FROM the west by default
    gusts: GustProcess = None  # type: ignore[assignment]
    ambient_c: float = 25.0
    diurnal_amplitude_c: float = 4.0
    visibility: str = "good"  # "good" | "poor"
    current_wind_mps: float = 0.0

    def __post_init__(self) -> None:
        if self.gusts is None:
            self.gusts = GustProcess(rng=self.rng)
        if self.visibility not in ("good", "poor"):
            raise ValueError("visibility must be 'good' or 'poor'")

    def step(self, dt: float, now: float) -> None:
        """Advance the gust process and the diurnal temperature."""
        self.current_wind_mps = self.gusts.step(dt)
        # Crude diurnal cycle around the base ambient (period 24 h).
        self.ambient_now_c = self.ambient_c + self.diurnal_amplitude_c * math.sin(
            2.0 * math.pi * now / 86_400.0
        )

    @property
    def ambient_temperature_c(self) -> float:
        """Current ambient temperature."""
        return getattr(self, "ambient_now_c", self.ambient_c)

    def wind_vector(self) -> tuple[float, float, float]:
        """Instantaneous wind as an ENU velocity vector (blowing TO)."""
        # Direction convention: wind_direction is where the wind comes FROM.
        to_deg = (self.wind_direction_deg + 180.0) % 360.0
        theta = math.radians(to_deg)
        return (
            self.current_wind_mps * math.sin(theta),
            self.current_wind_mps * math.cos(theta),
            0.0,
        )

    def apply_wind_drift(self, dynamics, dt: float, rejection: float = 0.85) -> None:
        """Drift a UAV's position with the unrejected wind component.

        ``rejection`` models the flight controller's wind rejection
        (position-hold authority): 1.0 = perfect rejection, 0.0 = free
        balloon. Drift applies only while airborne.
        """
        if not 0.0 <= rejection <= 1.0:
            raise ValueError("rejection must be in [0, 1]")
        if dynamics.position[2] <= 0.05:
            dynamics.drift_velocity = (0.0, 0.0, 0.0)
            return
        wind = self.wind_vector()
        drift = tuple(w * (1.0 - rejection) for w in wind)
        dynamics.drift_velocity = drift
        dynamics.position = tuple(
            p + d * dt for p, d in zip(dynamics.position, drift)
        )

    def extra_power_draw_w(self, base_draw_w: float) -> float:
        """Additional battery draw needed to fight the current wind.

        Quadratic in wind speed, calibrated so 10 m/s costs ~30% extra —
        the reason high-wind missions drain the pack visibly faster.
        """
        return base_draw_w * 0.003 * self.current_wind_mps**2
