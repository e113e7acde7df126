"""Flight recorder: mission logging and post-flight analysis.

The paper's ground control stations "automate the logging, management,
and monitoring of UAV operations" (Sec. IV-A). The recorder is the
logging half: it subscribes to every UAV's telemetry, persists an
append-only record stream (JSON-serialisable), and computes the
post-flight key performance indicators the GCS dashboards show —
per-UAV flight time, distance, energy, mode occupancy, and fleet
timeline export for the GUI track plots.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from repro.middleware.rosbus import Message, RosBus, Subscription
from repro.uav.uav import Telemetry


@dataclass(frozen=True)
class TelemetryRecord:
    """One persisted telemetry sample (flattened, JSON-friendly)."""

    uav_id: str
    stamp: float
    mode: str
    east: float
    north: float
    up: float
    battery_soc: float
    battery_temp_c: float
    gps_valid: bool

    def to_json(self) -> str:
        """One JSONL line."""
        return json.dumps(self.__dict__)

    @classmethod
    def from_json(cls, line: str) -> "TelemetryRecord":
        """Parse one JSONL line."""
        return cls(**json.loads(line))


@dataclass(frozen=True)
class FlightKpis:
    """Post-flight key performance indicators for one UAV."""

    uav_id: str
    flight_time_s: float
    distance_m: float
    energy_used_fraction: float
    mode_occupancy_s: dict[str, float]
    min_battery_soc: float
    max_battery_temp_c: float


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

    # ------------------------------------------------------------ analysis
    def kpis(self, uav_id: str) -> FlightKpis:
        """Compute post-flight KPIs for one UAV."""
        records = self.records.get(uav_id, [])
        if len(records) < 2:
            raise ValueError(f"not enough records for {uav_id!r}")
        distance = 0.0
        occupancy: dict[str, float] = {}
        for a, b in zip(records, records[1:]):
            distance += math.dist(
                (a.east, a.north, a.up), (b.east, b.north, b.up)
            )
            occupancy[a.mode] = occupancy.get(a.mode, 0.0) + (b.stamp - a.stamp)
        return FlightKpis(
            uav_id=uav_id,
            flight_time_s=records[-1].stamp - records[0].stamp,
            distance_m=distance,
            energy_used_fraction=max(
                0.0, records[0].battery_soc - records[-1].battery_soc
            ),
            mode_occupancy_s=occupancy,
            min_battery_soc=min(r.battery_soc for r in records),
            max_battery_temp_c=max(r.battery_temp_c for r in records),
        )

    def track(self, uav_id: str) -> list[tuple[float, float, float]]:
        """The recorded (east, north, up) track for GUI plotting."""
        return [(r.east, r.north, r.up) for r in self.records.get(uav_id, [])]

    # -------------------------------------------------------- persistence
    def export_jsonl(self, uav_id: str) -> str:
        """Serialise one UAV's records as JSONL."""
        return "\n".join(r.to_json() for r in self.records.get(uav_id, []))

    @classmethod
    def import_jsonl(cls, bus: RosBus, uav_id: str, text: str) -> "FlightRecorder":
        """Rebuild a recorder from exported JSONL (post-flight analysis)."""
        recorder = cls(bus=bus)
        recorder.records[uav_id] = [
            TelemetryRecord.from_json(line)
            for line in text.splitlines()
            if line.strip()
        ]
        return recorder
