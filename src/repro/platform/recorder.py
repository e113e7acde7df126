"""Flight recorder: mission logging and post-flight analysis.

The paper's ground control stations "automate the logging, management,
and monitoring of UAV operations" (Sec. IV-A). The recorder is the
logging half: it subscribes to every UAV's telemetry, keeps an
append-only record stream, and exports each UAV's track for the GUI
track plots.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.middleware.rosbus import Message, RosBus, Subscription
from repro.uav.uav import Telemetry


@dataclass(frozen=True)
class TelemetryRecord:
    """One recorded telemetry sample (flattened)."""

    uav_id: str
    stamp: float
    mode: str
    east: float
    north: float
    up: float
    battery_soc: float
    battery_temp_c: float
    gps_valid: bool


@dataclass
class FlightRecorder:
    """Records fleet telemetry from the bus and analyses it afterwards."""

    bus: RosBus
    records: dict[str, list[TelemetryRecord]] = field(default_factory=dict)
    _subs: list[Subscription] = field(default_factory=list, repr=False)

    def watch(self, uav_id: str) -> None:
        """Start recording one UAV's telemetry topic."""
        self.records.setdefault(uav_id, [])
        self._subs.append(
            self.bus.subscribe(
                f"/{uav_id}/telemetry", node="flight_recorder",
                callback=self._on_telemetry,
            )
        )

    def close(self) -> None:
        """Stop recording (the bus holds this recorder until then)."""
        for sub in self._subs:
            sub.unsubscribe()
        self._subs.clear()

    def _on_telemetry(self, message: Message) -> None:
        sample = message.data
        if not isinstance(sample, Telemetry):
            return
        east, north, up = sample.position_enu
        self.records.setdefault(sample.uav_id, []).append(
            TelemetryRecord(
                uav_id=sample.uav_id,
                stamp=sample.stamp,
                mode=sample.mode,
                east=east,
                north=north,
                up=up,
                battery_soc=sample.battery_soc,
                battery_temp_c=sample.battery_temp_c,
                gps_valid=sample.gps.valid,
            )
        )

    def track(self, uav_id: str) -> list[tuple[float, float, float]]:
        """The recorded (east, north, up) track for GUI plotting."""
        return [(r.east, r.north, r.up) for r in self.records.get(uav_id, [])]
