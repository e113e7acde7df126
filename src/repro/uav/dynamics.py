"""Kinematic waypoint-following dynamics for a multirotor.

A point-mass model in the local ENU frame: the vehicle accelerates toward
the active waypoint subject to speed/acceleration limits and settles when
within a capture radius. This is deliberately simple — the paper's
experiments exercise telemetry, reliability, and security layers, none of
which depend on rotor-level aerodynamics — but it yields smooth, physically
plausible trajectories for the Fig. 6 mapping plots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass
class WaypointPlan:
    """An ordered list of ENU waypoints with a capture radius."""

    waypoints: list[tuple[float, float, float]] = field(default_factory=list)
    capture_radius_m: float = 2.0
    index: int = 0

    @property
    def active(self) -> tuple[float, float, float] | None:
        """The waypoint currently being flown to, or ``None`` when done."""
        if self.index < len(self.waypoints):
            return self.waypoints[self.index]
        return None

    @property
    def complete(self) -> bool:
        """True when every waypoint has been captured."""
        return self.index >= len(self.waypoints)

    def advance_if_captured(self, position: tuple[float, float, float]) -> bool:
        """Advance to the next waypoint if within the capture radius."""
        target = self.active
        if target is None:
            return False
        dist = math.dist(position, target)
        if dist <= self.capture_radius_m:
            self.index += 1
            return True
        return False

    def replace(self, waypoints: list[tuple[float, float, float]]) -> None:
        """Swap in a new waypoint list and restart from its beginning."""
        self.waypoints = list(waypoints)
        self.index = 0


@dataclass
class UavDynamics:
    """Point-mass kinematics with velocity and acceleration limits."""

    position: tuple[float, float, float] = (0.0, 0.0, 0.0)
    velocity: tuple[float, float, float] = (0.0, 0.0, 0.0)
    # Environment-imposed drift (unrejected wind), set by the world each
    # step; part of the true ground velocity that inertial sensing sees.
    drift_velocity: tuple[float, float, float] = (0.0, 0.0, 0.0)
    max_speed_mps: float = 12.0
    max_accel_mps2: float = 4.0
    max_climb_mps: float = 4.0

    def step_toward(
        self, target: tuple[float, float, float] | None, dt: float
    ) -> None:
        """Advance ``dt`` seconds toward ``target`` (hover if ``None``).

        Written out per axis; every expression keeps the vector form's
        operation order (a norm is ``(x*x + y*y) + z*z``).
        """
        px, py, pz = self.position
        if target is None:
            wx = wy = wz = 0.0
        else:
            tx, ty, tz = target
            dx, dy, dz = tx - px, ty - py, tz - pz
            dist = math.sqrt(dx * dx + dy * dy + dz * dz)
            if dist < 1e-9:
                wx = wy = wz = 0.0
            else:
                # Proportional speed with braking near the target.
                speed = min(self.max_speed_mps, dist / max(dt, 1e-6), dist * 0.8 + 0.5)
                wx, wy, wz = dx / dist * speed, dy / dist * speed, dz / dist * speed
                # Clamp the vertical rate separately (multirotor climb limit).
                if abs(wz) > self.max_climb_mps:
                    wz = wz * (self.max_climb_mps / abs(wz))
        # Accelerate toward the desired velocity under the accel limit.
        vx, vy, vz = self.velocity
        ax, ay, az = wx - vx, wy - vy, wz - vz
        dv_norm = math.sqrt(ax * ax + ay * ay + az * az)
        max_dv = self.max_accel_mps2 * dt
        if dv_norm > max_dv and dv_norm > 1e-9:
            ax, ay, az = ax / dv_norm * max_dv, ay / dv_norm * max_dv, az / dv_norm * max_dv
        vx, vy, vz = vx + ax, vy + ay, vz + az
        self.velocity = (vx, vy, vz)
        self.position = (px + vx * dt, py + vy * dt, pz + vz * dt)

    @property
    def ground_velocity(self) -> tuple[float, float, float]:
        """Commanded velocity plus environment drift — what an INS sees."""
        vx, vy, vz = self.velocity
        dx, dy, dz = self.drift_velocity
        return (vx + dx, vy + dy, vz + dz)

    @property
    def speed_mps(self) -> float:
        """Current ground-frame speed magnitude."""
        vx, vy, vz = self.velocity
        return math.sqrt(vx * vx + vy * vy + vz * vz)
