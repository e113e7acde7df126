"""Simulation world: terrain extent, persons to find, environment, fleet.

The world steps every UAV and attacker with a fixed ``dt``, keeps the bus
clock coherent, and owns ground truth (person locations) that the SAR
detection models sample against.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.geo import EnuFrame, GeoPoint
from repro.obs import OBS
from repro.middleware.attacks import Attacker
from repro.uav.environment import Environment
from repro.middleware.rosbus import RosBus
from repro.uav.uav import Uav

if TYPE_CHECKING:
    from repro.uav.fleet import FleetEngine

ENGINES = ("scalar", "vectorized")
"""Valid values for ``World.engine``."""

VECTORIZED_MIN_UAVS = 10
"""Smallest fleet the world builders step with the vectorized engine.

Below it the per-UAV path is the faster one; the crossover is measured by
``benchmarks/test_bench_fleet_scaling.py``. Both engines are bit-identical,
so the choice changes wall time only.
"""


def engine_for(n_uavs: int) -> str:
    """The world engine for a fleet of ``n_uavs`` (``VECTORIZED_MIN_UAVS`` rule)."""
    return "vectorized" if n_uavs >= VECTORIZED_MIN_UAVS else "scalar"


@dataclass
class Person:
    """A person on the ground awaiting rescue (ground truth)."""

    person_id: str
    position: tuple[float, float]  # ENU east/north, metres (on the ground)
    detected: bool = False
    detected_by: str | None = None
    detected_at: float | None = None


@dataclass
class World:
    """Container stepping the fleet, environment, and attacks together."""

    frame: EnuFrame = field(
        default_factory=lambda: EnuFrame(origin=GeoPoint(35.1456, 33.4299, 0.0))
    )
    bus: RosBus = field(default_factory=RosBus)
    rng: np.random.Generator = field(default_factory=lambda: np.random.default_rng(0))
    area_size_m: tuple[float, float] = (400.0, 300.0)
    ambient_c: float = 25.0
    wind_mps: float = 2.0
    # Optional dynamic environment; when set it overrides the static
    # ambient_c / wind_mps fields and physically drifts airborne UAVs.
    environment: Environment | None = None
    uavs: dict[str, Uav] = field(default_factory=dict)
    persons: list[Person] = field(default_factory=list)
    attackers: list[Attacker] = field(default_factory=list)
    time: float = 0.0
    dt: float = 0.5
    # "scalar" steps each UAV in Python (the reference path); "vectorized"
    # batches the fleet physics through repro.uav.fleet.FleetEngine, which
    # is bit-identical to scalar (see tests/test_fleet_equivalence.py). The
    # world builders pick it with engine_for(fleet size).
    engine: str = "scalar"
    # Obstacle field (repro.plan.grid.ObstacleField) and camera geometry
    # (repro.sar.coverage.CameraConfig) set by the scenario loader. Typed
    # loosely because this substrate layer never imports upward — planners
    # and missions that know the concrete types live above it.
    obstacles: object | None = None
    camera: object | None = None
    _fleet: FleetEngine | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.engine not in ENGINES:
            raise ValueError(
                f"unknown engine {self.engine!r}; expected one of {ENGINES}"
            )
        if self.engine == "vectorized":
            from repro.uav.fleet import FleetEngine

            self._fleet = FleetEngine(self)

    def add_uav(self, uav: Uav) -> Uav:
        """Register a UAV with the world."""
        self.uavs[uav.spec.uav_id] = uav
        if self._fleet is not None:
            self._fleet.adopt(uav)
        return uav

    def add_attacker(self, attacker: Attacker) -> Attacker:
        """Register a scripted attacker stepped alongside the fleet."""
        self.attackers.append(attacker)
        return attacker

    def scatter_persons(self, count: int) -> list[Person]:
        """Place ``count`` persons uniformly at random in the search area."""
        persons = []
        for i in range(count):
            east = float(self.rng.uniform(0.0, self.area_size_m[0]))
            north = float(self.rng.uniform(0.0, self.area_size_m[1]))
            persons.append(Person(person_id=f"person-{i}", position=(east, north)))
        self.persons.extend(persons)
        return persons

    def step(self) -> float:
        """Advance the whole world by ``dt``; returns the new time."""
        self.time += self.dt
        self.bus.advance_clock(self.time)
        if not self.uavs:
            # Empty world: nothing flies, heats, or gets attacked. Advance
            # the clocks only — campaign smoke grids legitimately build
            # zero-UAV worlds and should not pay a full step (or obs span).
            return self.time
        obs_on = OBS.enabled
        if obs_on:
            tick_start = _time.perf_counter()
        for attacker in self.attackers:
            attacker.step(self.time)
        if self.environment is not None:
            self.environment.step(self.dt, self.time)
            ambient = self.environment.ambient_temperature_c
            wind = self.environment.current_wind_mps
        else:
            ambient, wind = self.ambient_c, self.wind_mps
        if self._fleet is not None:
            self._fleet.step(
                self.dt, self.time, ambient, wind, self.environment
            )
        else:
            for uav in self.uavs.values():
                extra = (
                    self.environment.extra_power_draw_w(uav.battery.spec.cruise_draw_w)
                    if self.environment is not None
                    else 0.0
                )
                uav.step(
                    self.dt, self.time, ambient_c=ambient, wind_mps=wind,
                    extra_draw_w=extra,
                )
                if self.environment is not None:
                    self.environment.apply_wind_drift(uav.dynamics, self.dt)
        if obs_on:
            OBS.metrics.inc("world_ticks_total")
            OBS.metrics.observe(
                "world_tick_duration_s", _time.perf_counter() - tick_start
            )
        return self.time

