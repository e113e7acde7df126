"""UAV manager: connection, identification, and command translation.

"UAV Manager manages connections to UAVs, identifying each by type, ID,
equipment, and battery level. It handles UAV operations, translating user
commands into UAV-compatible instructions." (Sec. IV-A)

Subscribes to each UAV's telemetry topic, maintains a live registry, and
translates high-level operator commands into flight-mode / plan commands
on the vehicle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.middleware.rosbus import Message, RosBus, Subscription
from repro.platform.database import DatabaseManager
from repro.uav.uav import FlightMode, Telemetry, Uav


@dataclass
class UavRecord:
    """Registry entry for one connected UAV."""

    uav_id: str
    uav_type: str
    equipment: list[str]
    battery_percent: float = 100.0
    mode: str = FlightMode.IDLE.value
    last_seen: float = 0.0
    position_enu: tuple[float, float, float] = (0.0, 0.0, 0.0)


@dataclass
class UavManager:
    """Connection and command hub for the fleet."""

    bus: RosBus
    database: DatabaseManager
    uavs: dict[str, Uav] = field(default_factory=dict)
    registry: dict[str, UavRecord] = field(default_factory=dict)
    _subs: list[Subscription] = field(default_factory=list, repr=False)

    def connect(
        self, uav: Uav, uav_type: str = "DJI-M300-RTK", equipment: list[str] | None = None
    ) -> UavRecord:
        """Register a UAV and subscribe to its telemetry."""
        uav_id = uav.spec.uav_id
        if uav_id in self.uavs:
            raise ValueError(f"UAV {uav_id!r} already connected")
        self.uavs[uav_id] = uav
        record = UavRecord(
            uav_id=uav_id,
            uav_type=uav_type,
            equipment=equipment or ["rgb_camera", "thermal", "gps", "jetson_xavier_nx"],
        )
        self.registry[uav_id] = record
        self._subs.append(
            self.bus.subscribe(
                f"/{uav_id}/telemetry", node="uav_manager", callback=self._on_telemetry
            )
        )
        return record

    def close(self) -> None:
        """Unsubscribe from every UAV's telemetry (the bus holds this hub)."""
        for sub in self._subs:
            sub.unsubscribe()
        self._subs.clear()

    def _on_telemetry(self, message: Message) -> None:
        sample = message.data
        if not isinstance(sample, Telemetry):
            return
        record = self.registry.get(sample.uav_id)
        if record is None:
            return
        record.battery_percent = 100.0 * sample.battery_soc
        record.mode = sample.mode
        record.last_seen = sample.stamp
        record.position_enu = sample.position_enu
        # Report location data to the database manager, as the paper notes.
        self.database.put(
            "uav_locations",
            sample.uav_id,
            {"position": sample.position_enu, "stamp": sample.stamp},
        )

    # ------------------------------------------------------------- commands
    def command(self, uav_id: str, command: str, **kwargs) -> None:
        """Translate a high-level operator command into UAV instructions.

        Supported commands: ``start_mission`` (waypoints=...), ``hold``,
        ``resume``, ``return_to_base``, ``emergency_land``, ``goto``
        (setpoint=...).
        """
        uav = self.uavs.get(uav_id)
        if uav is None:
            raise KeyError(f"unknown UAV {uav_id!r}")
        if command == "start_mission":
            uav.start_mission(kwargs["waypoints"])
        elif command == "hold":
            uav.command_mode(FlightMode.HOLD)
        elif command == "resume":
            uav.command_mode(FlightMode.MISSION)
        elif command == "return_to_base":
            uav.command_mode(FlightMode.RETURN_TO_BASE)
        elif command == "emergency_land":
            uav.command_mode(FlightMode.EMERGENCY_LAND)
        elif command == "goto":
            uav.command_guided_setpoint(kwargs["setpoint"])
        else:
            raise ValueError(f"unknown command {command!r}")

    def broadcast(self, command: str, **kwargs) -> None:
        """Send a command to every connected UAV."""
        for uav_id in self.uavs:
            self.command(uav_id, command, **kwargs)

    def fleet_status(self) -> list[UavRecord]:
        """Registry snapshot sorted by UAV id."""
        return [self.registry[uav_id] for uav_id in sorted(self.registry)]
