"""The UAV agent: dynamics + battery + sensors + flight-mode logic.

Each UAV follows a waypoint plan, publishes telemetry on the ROS-like bus,
and obeys flight-mode commands that the ConSert layer issues (continue
mission / hold position / return to base / emergency land) — the guarantee
vocabulary of the paper's Fig. 1 UAV ConSert.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.geo import EnuFrame
from repro.middleware.rosbus import RosBus
from repro.obs import event
from repro.uav.battery import Battery, BatterySpec
from repro.uav.dynamics import UavDynamics, WaypointPlan
from repro.uav.sensors import GpsFix, SensorSuite


class FlightMode(enum.Enum):
    """Flight modes matching the UAV ConSert guarantee set (Fig. 1)."""

    IDLE = "idle"
    MISSION = "mission"
    HOLD = "hold"
    RETURN_TO_BASE = "return_to_base"
    EMERGENCY_LAND = "emergency_land"
    GUIDED = "guided"  # externally commanded setpoints (collaborative landing)
    LANDED = "landed"


#: Members the per-tick code compares against, bound once: on 3.11 a
#: module global costs about a tenth of ``FlightMode.MISSION``'s lookup.
_MISSION = FlightMode.MISSION
_RETURN_TO_BASE = FlightMode.RETURN_TO_BASE
_EMERGENCY_LAND = FlightMode.EMERGENCY_LAND
_GUIDED = FlightMode.GUIDED
_LANDED = FlightMode.LANDED

#: Modes that hold the vehicle still on the ground.
_GROUNDED = (FlightMode.IDLE, _LANDED)
#: Modes that end in a touchdown.
_LANDING = (_EMERGENCY_LAND, _GUIDED, _RETURN_TO_BASE)


@dataclass(frozen=True)
class UavSpec:
    """Static description of one airframe."""

    uav_id: str
    rotor_count: int = 4
    base_position: tuple[float, float, float] = (0.0, 0.0, 0.0)
    battery_spec: BatterySpec = field(default_factory=BatterySpec)


class Telemetry(NamedTuple):
    """One telemetry sample published on ``/<uav_id>/telemetry``."""

    uav_id: str
    stamp: float
    mode: str
    position_enu: tuple[float, float, float]
    velocity_enu: tuple[float, float, float]
    gps: GpsFix
    imu_velocity: tuple[float, float, float]
    battery_soc: float
    battery_temp_c: float
    camera_health: float
    wind_mps: float


@dataclass
class Uav:
    """A simulated UAV wired to the shared bus.

    The vehicle believes its navigation solution (``nav_position``), which
    is normally the GPS fix converted to ENU — meaning a spoofed GPS pulls
    the *believed* position away from truth, and the waypoint controller
    then physically drags the vehicle off course, reproducing the Fig. 6
    trajectory deviation.
    """

    spec: UavSpec
    frame: EnuFrame
    bus: RosBus
    rng: np.random.Generator
    dynamics: UavDynamics = None  # type: ignore[assignment]
    battery: Battery = None  # type: ignore[assignment]
    sensors: SensorSuite = None  # type: ignore[assignment]
    plan: WaypointPlan = field(default_factory=WaypointPlan)
    mode: FlightMode = FlightMode.IDLE
    guided_setpoint: tuple[float, float, float] | None = None
    use_external_nav: bool = False
    external_nav_position: tuple[float, float, float] | None = None
    telemetry_rate_hz: float = 2.0
    # Motors reported failed by the flight controller (fault injection
    # increments this; SafeDrones' propulsion model consumes it).
    motors_failed: int = 0
    _last_telemetry: float = field(default=-1e9, repr=False)
    _telemetry_topic: str = field(init=False, repr=False, compare=False)
    trajectory: list[tuple[float, float, float]] = field(default_factory=list)
    believed_trajectory: list[tuple[float, float, float]] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._telemetry_topic = f"/{self.spec.uav_id}/telemetry"
        if self.dynamics is None:
            self.dynamics = UavDynamics(position=self.spec.base_position)
        if self.battery is None:
            self.battery = Battery(spec=self.spec.battery_spec)
        if self.sensors is None:
            self.sensors = SensorSuite.create(self.frame, self.rng)

    # ------------------------------------------------------------------ nav
    def nav_position(self, now: float) -> tuple[float, float, float]:
        """The position the flight controller believes, in ENU metres.

        Order of precedence: external navigation (collaborative
        localization), valid GPS, dead-reckoned last belief.
        """
        if self.use_external_nav and self.external_nav_position is not None:
            return self.external_nav_position
        # The GPS position in the sensor's frame, which is this vehicle's.
        gps_enu = self.sensors.gps.position(self.dynamics.position)
        if gps_enu is not None:
            return gps_enu
        if self.believed_trajectory:
            return self.believed_trajectory[-1]
        return self.dynamics.position

    # ---------------------------------------------------------------- modes
    def start_mission(self, waypoints: list[tuple[float, float, float]]) -> None:
        """Load a waypoint plan and enter MISSION mode."""
        self.plan.replace(waypoints)
        self.mode = FlightMode.MISSION

    def command_mode(self, mode: FlightMode) -> None:
        """Apply a flight-mode command from the assurance layer."""
        if mode is not self.mode:
            event(
                "info", "uav.uav", "mode_transition",
                uav=self.spec.uav_id,
                previous=self.mode.value, mode=mode.value,
            )
        self.mode = mode

    def command_guided_setpoint(self, setpoint: tuple[float, float, float]) -> None:
        """Enter GUIDED mode flying to an externally supplied setpoint."""
        self.mode = FlightMode.GUIDED
        self.guided_setpoint = setpoint

    # ----------------------------------------------------------------- step
    def _target_for_mode(self, believed: tuple[float, float, float]) -> tuple[float, float, float] | None:
        # The flight controller only sees its believed position, so every
        # navigated mode steers in belief space: the physical vehicle flies
        # toward target + (truth - belief), which reproduces how a wrong
        # belief (spoofed GPS, CL error) physically displaces the vehicle.
        mode = self.mode
        if mode is _MISSION:
            target = self.plan.active
            if target is None:
                return None
        elif mode is _RETURN_TO_BASE:
            target = self.spec.base_position
        elif mode is _EMERGENCY_LAND:
            # Vertical descent in place needs no navigation solution.
            pos = self.dynamics.position
            return (pos[0], pos[1], 0.0)
        elif mode is _GUIDED and self.guided_setpoint is not None:
            target = self.guided_setpoint
        else:
            return None  # IDLE / HOLD / LANDED hover in place
        bx, by, bz = believed
        px, py, pz = self.dynamics.position
        tx, ty, tz = target
        return (tx - (bx - px), ty - (by - py), tz - (bz - pz))

    def step(
        self,
        dt: float,
        now: float,
        ambient_c: float = 25.0,
        wind_mps: float = 0.0,
        extra_draw_w: float = 0.0,
    ) -> None:
        """Advance the vehicle by one simulation step and publish telemetry.

        ``extra_draw_w`` adds environment-driven load (e.g. fighting wind)
        on top of the mode-dependent baseline draw.
        """
        dynamics = self.dynamics
        believed = self.nav_position(now)
        self.believed_trajectory.append(believed)

        target = self._target_for_mode(believed)
        if self.mode in _GROUNDED:
            dynamics.velocity = (0.0, 0.0, 0.0)
        else:
            dynamics.step_toward(target, dt)
            east, north, up = dynamics.position
            if up < 0.0:
                # Ground contact: clamp altitude and kill vertical speed.
                veast, vnorth, _ = dynamics.velocity
                dynamics.position = (east, north, 0.0)
                dynamics.velocity = (veast, vnorth, 0.0)
        position = dynamics.position
        self.trajectory.append(position)

        mode = self.mode
        if mode is _MISSION:
            self.plan.advance_if_captured(believed)
            if self.plan.complete:
                mode = self.mode = _RETURN_TO_BASE
        if mode in _LANDING:
            # Touchdown: on the ground and not climbing. Horizontal speed is
            # ignored — belief noise can command small lateral corrections
            # right up to ground contact.
            if position[2] <= 0.05 and dynamics.velocity[2] <= 0.2:
                if mode is not _RETURN_TO_BASE or self._near_base():
                    mode = self.mode = _LANDED

        draw = self._power_draw()
        if mode not in _GROUNDED:
            draw += max(0.0, extra_draw_w)
        self.battery.step(dt, now, draw, ambient_c)
        self.sensors.camera.step(dt)

        if now - self._last_telemetry >= 1.0 / self.telemetry_rate_hz:
            self._last_telemetry = now
            self.publish_telemetry(now, wind_mps)

    def _near_base(self) -> bool:
        ground = math.dist(self.dynamics.position[:2], self.spec.base_position[:2])
        return ground < 3.0

    def _power_draw(self) -> float:
        spec = self.battery.spec
        if self.mode in _GROUNDED:
            return spec.idle_draw_w
        if self.dynamics.speed_mps > 1.0:
            return spec.cruise_draw_w
        return spec.hover_draw_w

    # ------------------------------------------------------------ telemetry
    def publish_telemetry(self, now: float, wind_mps: float = 0.0) -> Telemetry | None:
        """Sample all sensors and publish a Telemetry record on the bus.

        Returns the sample, or ``None`` when the topic has no reader
        (:meth:`RosBus.has_reader`): then nothing is measured or built,
        but each sensor takes the events its measure would take and the
        bus uses up the sample's sequence number, so every noise stream
        and every later ``seq`` are those of a full publish.
        """
        sensors, bus = self.sensors, self.bus
        topic = self._telemetry_topic
        if not bus.has_reader(topic):
            sensors.gps.take()
            sensors.imu.take()
            sensors.temperature.take()
            sensors.wind.take()
            bus.skip()
            return None
        dynamics, battery = self.dynamics, self.battery
        uav_id = self.spec.uav_id
        fix = sensors.gps.measure(dynamics.position, now)
        # ``_value_`` is what the enum's ``value`` property returns.
        sample = Telemetry(
            uav_id,
            now,
            self.mode._value_,
            self.frame.to_enu(fix.point) if fix.valid else dynamics.position,
            dynamics.velocity,
            fix,
            sensors.imu.measure(dynamics.ground_velocity),
            battery.soc,
            sensors.temperature.measure(battery.temp_c),
            sensors.camera.health,
            sensors.wind.measure(wind_mps),
        )
        bus.publish(topic, sample, uav_id, None, now)
        return sample
