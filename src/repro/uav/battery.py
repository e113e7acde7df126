"""Electro-thermal battery model with fault injection.

Reproduces the substrate of the paper's Fig. 5 experiment: "the battery of
one UAV out of three became faulty due to high temperature, causing a sharp
drop from 80% to 40% at the 250th second". The model tracks state of
charge (SoC), cell temperature, and an injected fault schedule; SafeDrones
(``repro.safedrones.battery``) converts these observables into a Markov
failure probability.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs import event


@dataclass(frozen=True)
class BatterySpec:
    """Static parameters of a flight battery.

    ``capacity_wh`` and draw figures approximate a DJI Matrice 300 with
    its dual TB60 packs (~35 min cruise endurance); the experiments only
    depend on the *relative* SoC trajectory.
    """

    capacity_wh: float = 548.0
    hover_draw_w: float = 850.0
    cruise_draw_w: float = 950.0
    idle_draw_w: float = 60.0
    nominal_temp_c: float = 25.0
    # Above this cell temperature the pack is considered thermally stressed.
    stress_temp_c: float = 60.0
    thermal_time_constant_s: float = 120.0


@dataclass
class BatteryFault:
    """A scheduled battery fault.

    ``at_time`` — simulation second at which the fault manifests.
    ``soc_drop_to`` — SoC fraction the pack collapses to (paper: 0.40).
    ``temp_rise_c`` — immediate cell temperature excursion at onset.
    ``sustained_heat_c`` — ongoing self-heating above ambient while the
    fault persists (thermal-runaway behaviour of a failed cell group).
    """

    at_time: float
    soc_drop_to: float = 0.40
    temp_rise_c: float = 45.0
    sustained_heat_c: float = 45.0
    triggered: bool = False


@dataclass
class Battery:
    """Dynamic battery state stepped by the simulation.

    SoC depletes according to the commanded power draw; cell temperature
    relaxes toward ambient plus a load-dependent rise. Injected faults
    collapse SoC instantaneously (cell-group failure) and raise temperature.
    """

    spec: BatterySpec = field(default_factory=BatterySpec)
    soc: float = 1.0
    temp_c: float = 25.0
    faults: list[BatteryFault] = field(default_factory=list)
    faulted: bool = False

    def inject_fault(self, fault: BatteryFault) -> None:
        """Schedule a fault to manifest at ``fault.at_time``."""
        self.faults.append(fault)

    def step(self, dt: float, now: float, draw_w: float, ambient_c: float = 25.0) -> None:
        """Advance the pack by ``dt`` seconds under ``draw_w`` watts of load."""
        energy_wh = draw_w * dt / 3600.0
        self.soc = max(0.0, self.soc - energy_wh / self.spec.capacity_wh)
        # First-order thermal model: relax toward ambient + load-induced rise.
        load_rise = 12.0 * draw_w / max(self.spec.hover_draw_w, 1.0)
        target = ambient_c + load_rise
        # A triggered fault keeps self-heating the pack (thermal runaway).
        if self.faults:
            target += sum(f.sustained_heat_c for f in self.faults if f.triggered)
        alpha = min(1.0, dt / self.spec.thermal_time_constant_s)
        self.temp_c += alpha * (target - self.temp_c)
        for fault in self.faults:
            if not fault.triggered and now >= fault.at_time:
                fault.triggered = True
                self.faulted = True
                self.soc = min(self.soc, fault.soc_drop_to)
                self.temp_c += fault.temp_rise_c
                event(
                    "warning", "uav.battery", "fault_activated",
                    sim_time=now, soc_drop_to=fault.soc_drop_to,
                    temp_c=round(self.temp_c, 2),
                )

    @property
    def soc_percent(self) -> float:
        """State of charge as a percentage in [0, 100]."""
        return 100.0 * self.soc

    @property
    def thermally_stressed(self) -> bool:
        """True when cell temperature exceeds the spec stress threshold."""
        return self.temp_c > self.spec.stress_temp_c

    def endurance_estimate_s(self, draw_w: float) -> float:
        """Remaining flight time in seconds at a constant ``draw_w`` load."""
        if draw_w <= 0.0:
            return float("inf")
        return self.soc * self.spec.capacity_wh * 3600.0 / draw_w
