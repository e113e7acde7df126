"""SAR mission orchestration and metrics.

Wires the coverage planner, the detection model, and the UAV fleet into a
steppable mission: each UAV scans its strip, detection attempts fire when
ground-truth persons enter the camera swath, and metrics (coverage,
detection accuracy, completion time, per-UAV productive time) accumulate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


from repro.plan.astar import route_waypoints
from repro.sar.coverage import CameraConfig, boustrophedon_path, partition_area
from repro.sar.detection import DetectionModel, DetectionOutcome
from repro.uav.uav import FlightMode, Uav
from repro.uav.world import World

#: Bound once: the per-tick mode tests below read a module global instead
#: of looking the member up on the enum class.
_MISSION = FlightMode.MISSION


@dataclass
class MissionMetrics:
    """Accumulated mission statistics."""

    persons_total: int = 0
    persons_found: int = 0
    attempts: list[DetectionOutcome] = field(default_factory=list)
    cells_total: int = 0
    cells_visited: set[tuple[int, int]] = field(default_factory=set)
    started_at: float = 0.0
    completed_at: float | None = None
    productive_time_s: dict[str, float] = field(default_factory=dict)

    @property
    def detection_accuracy(self) -> float:
        """Fraction of in-swath detection attempts that succeeded."""
        if not self.attempts:
            return float("nan")
        return sum(1 for a in self.attempts if a.detected) / len(self.attempts)

    @property
    def find_rate(self) -> float:
        """Fraction of ground-truth persons found."""
        if self.persons_total == 0:
            return float("nan")
        return self.persons_found / self.persons_total

    @property
    def coverage_fraction(self) -> float:
        """Fraction of area grid cells overflown inside the swath."""
        if self.cells_total == 0:
            return 0.0
        return len(self.cells_visited) / self.cells_total

    @property
    def duration_s(self) -> float | None:
        """Mission wall time, if completed."""
        if self.completed_at is None:
            return None
        return self.completed_at - self.started_at


@dataclass
class SarMission:
    """A multi-UAV coverage-search mission over a rectangular area."""

    world: World
    altitude_m: float = 20.0
    cell_size_m: float = 10.0
    detector: DetectionModel = None  # type: ignore[assignment]
    # Camera geometry used for BOTH track spacing and detection gating;
    # defaults to the world's scenario-loaded camera, then to stock optics.
    camera: CameraConfig = None  # type: ignore[assignment]
    metrics: MissionMetrics = field(default_factory=MissionMetrics)
    rescan_queue: list[tuple[float, float]] = field(default_factory=list)
    _detect_cooldown: dict[tuple[str, str], float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.detector is None:
            self.detector = DetectionModel(rng=self.world.rng)
        if self.camera is None:
            world_camera = getattr(self.world, "camera", None)
            self.camera = world_camera if world_camera is not None else CameraConfig()
        east, north = self.world.area_size_m
        self.metrics.cells_total = math.ceil(east / self.cell_size_m) * math.ceil(
            north / self.cell_size_m
        )
        self.metrics.persons_total = len(self.world.persons)

    # ----------------------------------------------------------------- plan
    def assign_paths(self, altitude_m: float | None = None) -> dict[str, list]:
        """Partition the area and start every UAV on its strip.

        When the world carries an obstacle field (an ``"obstacles"``
        scenario block), each strip's lawnmower track is routed around the
        obstacles leg by leg before launch.
        """
        if altitude_m is not None:
            self.altitude_m = altitude_m
        uav_ids = sorted(self.world.uavs)
        strips = partition_area(self.world.area_size_m, len(uav_ids))
        obstacles = getattr(self.world, "obstacles", None)
        plans: dict[str, list] = {}
        for uav_id, bounds in zip(uav_ids, strips):
            uav = self.world.uavs[uav_id]
            path = boustrophedon_path(
                bounds, self.altitude_m, self.camera.half_fov_deg,
                self.camera.overlap,
            )
            if obstacles is not None:
                path = route_waypoints(obstacles, uav.dynamics.position, path)
            uav.start_mission(path)
            plans[uav_id] = path
        self.metrics.started_at = self.world.time
        self.metrics.persons_total = len(self.world.persons)
        return plans

    # ----------------------------------------------------------------- step
    def step(self) -> None:
        """Advance the world one tick and run scanning for every UAV."""
        self.world.step()
        now = self.world.time
        for uav in self.world.uavs.values():
            if uav.mode is not _MISSION:
                continue
            self.metrics.productive_time_s[uav.spec.uav_id] = (
                self.metrics.productive_time_s.get(uav.spec.uav_id, 0.0)
                + self.world.dt
            )
            self._scan(uav, now)
        if self.mission_complete and self.metrics.completed_at is None:
            self.metrics.completed_at = now

    def _scan(self, uav: Uav, now: float) -> None:
        east, north, alt = uav.dynamics.position
        if alt < 1.0:
            return
        swath = self.camera.swath_width_m(max(alt, 1.0)) / 2.0
        # Every cell whose centre lies inside the camera swath counts as
        # covered, bounded to the search area. The rule is
        # ``math.hypot(dx, dy) <= swath``; squared distances decide every
        # cell outside a ±1e-9 relative band around the swath circle,
        # which is far wider than their rounding error, and hypot decides
        # the cells inside it. Cells are added in the same col-major order.
        east_max, north_max = self.world.area_size_m
        cell = self.cell_size_m
        reach = int(swath // cell) + 1
        center_col = int(east // cell)
        center_row = int(north // cell)
        rows = []
        for row in range(center_row - reach, center_row + reach + 1):
            cell_north = (row + 0.5) * cell
            if 0.0 <= cell_north <= north_max:
                dy = cell_north - north
                rows.append((row, dy, dy * dy))
        s2 = swath * swath
        outer = s2 * (1.0 + 1e-9)
        inner = s2 * (1.0 - 1e-9)
        visited = self.metrics.cells_visited
        for col in range(center_col - reach, center_col + reach + 1):
            cell_east = (col + 0.5) * cell
            if not 0.0 <= cell_east <= east_max:
                continue
            dx = cell_east - east
            dx2 = dx * dx
            if dx2 > outer:
                continue
            for row, dy, dy2 in rows:
                d2 = dx2 + dy2
                if d2 < inner or (d2 <= outer and math.hypot(dx, dy) <= swath):
                    visited.add((col, row))
        for person in self.world.persons:
            dx = person.position[0] - east
            dy = person.position[1] - north
            if math.hypot(dx, dy) > swath:
                continue
            key = (uav.spec.uav_id, person.person_id)
            if now - self._detect_cooldown.get(key, -1e9) < 2.0:
                continue
            self._detect_cooldown[key] = now
            outcome = self.detector.attempt(person.person_id, alt, now)
            self.metrics.attempts.append(outcome)
            if outcome.detected and not person.detected:
                person.detected = True
                person.detected_by = uav.spec.uav_id
                person.detected_at = now
                self.metrics.persons_found += 1
            elif not outcome.detected:
                # Missed while in swath: candidate for SINADRA re-scan.
                self.rescan_queue.append(person.position)

    @property
    def mission_complete(self) -> bool:
        """All UAVs finished their plans (no longer in MISSION mode)."""
        return all(uav.mode is not _MISSION for uav in self.world.uavs.values())

    def run(self, max_time_s: float = 3600.0) -> MissionMetrics:
        """Step until the mission completes or the time budget expires."""
        while not self.mission_complete and self.world.time < max_time_s:
            self.step()
        return self.metrics
