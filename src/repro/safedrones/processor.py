"""Companion-computer (processor) reliability model.

SafeDrones "includes the estimation of the probability of failure, taking
into account various components such as the battery, processor, and UAV
rotors" (Sec. III-A1), citing the nanoscale-dependability survey [31] for
the processor part. We model the onboard Jetson-class SoC with a
soft-error (SER) component and a temperature-accelerated permanent-fault
component, both exponential, combined in series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.safedrones.battery import BOLTZMANN_EV


@dataclass
class ProcessorReliabilityModel:
    """Exponential SoC failure model with thermal acceleration.

    ``ser_rate_per_hour`` covers transient upsets that crash the autonomy
    stack (requiring reboot mid-flight); ``wearout_rate_per_hour`` covers
    permanent faults, accelerated by junction temperature via Arrhenius.
    """

    ser_rate_per_hour: float = 2e-4
    wearout_rate_per_hour: float = 5e-5
    activation_energy_ev: float = 0.5
    reference_temp_c: float = 45.0
    accumulated_hazard: float = 0.0
    last_time: float | None = None

    def thermal_factor(self, junction_temp_c: float) -> float:
        """Arrhenius acceleration of the wear-out rate."""
        t_ref = self.reference_temp_c + 273.15
        t = junction_temp_c + 273.15
        return math.exp(
            (self.activation_energy_ev / BOLTZMANN_EV) * (1.0 / t_ref - 1.0 / t)
        )

    def hazard_rate_per_s(self, junction_temp_c: float) -> float:
        """Total instantaneous failure rate at the given junction temp."""
        wearout = self.wearout_rate_per_hour * self.thermal_factor(junction_temp_c)
        return (self.ser_rate_per_hour + wearout) / 3600.0

    def update(self, now: float, junction_temp_c: float) -> float:
        """Accumulate hazard up to ``now``; returns failure probability."""
        if self.last_time is None:
            self.last_time = now
            return self.failure_probability
        dt = now - self.last_time
        if dt < 0.0:
            raise ValueError("time went backwards")
        self.last_time = now
        self.accumulated_hazard += self.hazard_rate_per_s(junction_temp_c) * dt
        return self.failure_probability

    @property
    def failure_probability(self) -> float:
        """PoF under the accumulated (non-homogeneous) exponential hazard."""
        return 1.0 - math.exp(-self.accumulated_hazard)

    @property
    def reliability(self) -> float:
        """1 - probability of failure."""
        return math.exp(-self.accumulated_hazard)
