"""SafeDrones runtime monitor: telemetry in, reliability guarantees out.

Composes the propulsion, battery, and processor models under a UAV-loss
fault tree and maps the live probability of failure to the three-level
guarantee vocabulary the Fig. 1 ConSert consumes (High / Medium / Low
reliability). Also detects the battery cell-fault signature (sharp SoC
collapse) that the Fig. 5 scenario injects.

This one monitor is the SafeDrones runtime everywhere: Fig. 5, ``fig4``,
the per-UAV assurance plane and the batched plane, which keeps one per
row. Its update runs on plain floats (the component models hold floats,
the assessment is a ``NamedTuple``), so it is cheap enough to run on
every tick of the loop it watches.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.safedrones.battery import BatteryReliabilityModel
from repro.safedrones.fta import ComplexBasicEvent, FaultTree, OrGate
from repro.safedrones.processor import ProcessorReliabilityModel
from repro.safedrones.propulsion import PropulsionModel


class ReliabilityLevel(enum.Enum):
    """Guarantee levels offered to the ConSert layer (Fig. 1)."""

    HIGH = "high"
    MEDIUM = "medium"
    LOW = "low"

    @classmethod
    def from_failure_probability(
        cls, pof: float, medium_at: float = 0.2, low_at: float = 0.6
    ) -> "ReliabilityLevel":
        """Map a probability of failure to a guarantee level."""
        if not 0.0 <= pof <= 1.0:
            raise ValueError(f"probability of failure out of range: {pof}")
        if pof < medium_at:
            return _HIGH
        if pof < low_at:
            return _MEDIUM
        return _LOW


#: Bound once: on Python 3.11 every attribute lookup on an Enum class goes
#: through ``EnumType.__getattr__``, which costs as much as the mapping.
_HIGH, _MEDIUM, _LOW = ReliabilityLevel.HIGH, ReliabilityLevel.MEDIUM, ReliabilityLevel.LOW
_level_of = ReliabilityLevel.from_failure_probability


class ReliabilityAssessment(NamedTuple):
    """One SafeDrones output sample."""

    stamp: float
    failure_probability: float
    battery_pof: float
    propulsion_pof: float
    processor_pof: float
    level: ReliabilityLevel
    battery_fault_detected: bool
    abort_recommended: bool


@dataclass
class SafeDronesMonitor:
    """Per-UAV runtime reliability monitor.

    ``pof_abort_threshold`` is the paper's predefined failure-probability
    threshold (0.9 in the Fig. 5 experiment): below it, SafeDrones lets the
    mission continue even after a diagnosed battery fault; at or above it,
    it recommends aborting (emergency landing).
    """

    uav_id: str
    rotor_count: int = 4
    pof_abort_threshold: float = 0.9
    mission_horizon_s: float = 600.0
    soc_collapse_threshold: float = 0.15
    battery: BatteryReliabilityModel = field(default_factory=BatteryReliabilityModel)
    processor: ProcessorReliabilityModel = field(
        default_factory=ProcessorReliabilityModel
    )
    propulsion: PropulsionModel = None  # type: ignore[assignment]
    _last_soc: float | None = field(default=None, repr=False)
    battery_fault_detected: bool = False
    #: The most recent assessment, or None before the first update. Only
    #: the newest is kept: a monitor runs on every tick of a mission.
    latest: ReliabilityAssessment | None = None

    def __post_init__(self) -> None:
        if self.propulsion is None:
            self.propulsion = PropulsionModel(rotor_count=self.rotor_count)
        loss_tree = OrGate(
            name="uav_loss",
            children=[
                ComplexBasicEvent("battery_failure", self.battery),
                ComplexBasicEvent("processor_failure", self.processor),
            ],
        )
        self.fault_tree = FaultTree(name=f"{self.uav_id}_loss", top=loss_tree)

    # -------------------------------------------------------------- update
    def update(
        self,
        now: float,
        soc: float,
        battery_temp_c: float,
        motors_failed: int | None = None,
    ) -> ReliabilityAssessment:
        """Feed one telemetry sample; returns the current assessment.

        ``motors_failed`` (when reported) syncs the propulsion Markov
        model with the flight controller's observed motor state.
        """
        propulsion = self.propulsion
        if motors_failed is not None:
            while propulsion.motors_failed < motors_failed:
                propulsion.record_motor_failure()
        last_soc = self._last_soc
        if (
            last_soc is not None
            and not self.battery_fault_detected
            and last_soc - soc >= self.soc_collapse_threshold
        ):
            # Sharp SoC collapse between consecutive samples: diagnosed
            # cell-group fault (the Fig. 5 80% -> 40% drop).
            self.battery_fault_detected = True
            self.battery.register_cell_fault()
        self._last_soc = soc

        battery_pof = self.battery.update(now, soc, battery_temp_c)
        # Junction temperature tracks battery bay temperature plus load rise.
        processor_pof = self.processor.update(now, battery_temp_c + 15.0)
        propulsion_pof = propulsion.failure_probability(self.mission_horizon_s)

        total_pof = self.fault_tree.top_event_probability()
        # Fold the propulsion mission-horizon risk in as an OR term.
        total_pof = 1.0 - (1.0 - total_pof) * (1.0 - propulsion_pof)
        assessment = ReliabilityAssessment(
            now,
            total_pof,
            battery_pof,
            propulsion_pof,
            processor_pof,
            _level_of(total_pof),
            self.battery_fault_detected,
            total_pof >= self.pof_abort_threshold,
        )
        self.latest = assessment
        return assessment
