"""Declarative scenario configuration.

A downstream user should be able to describe a whole experiment — fleet,
environment, persons, faults, attacks — as one JSON-serialisable dict and
get a ready world back, instead of writing builder code. This module is
that loader; it is also how regression scenarios are archived next to the
results they produced.

The keys, with their types, ranges and defaults, are declared once in
:data:`repro.schema.SAR`; the loader reads every value through it.

A ``"mission"`` entry preloads a waypoint plan (the UAV takes off in
MISSION mode at t=0); when an ``"obstacles"`` block is present the
mission's legs are routed around the obstacle field by
:mod:`repro.plan` before launch, and the loaded
:class:`~repro.plan.grid.ObstacleField` /
:class:`~repro.sar.coverage.CameraConfig` ride on the world for mission
builders. The comm fault types need a
:class:`~repro.middleware.degraded.DegradedBus` transport; the loader
builds one automatically when any comm fault (or an explicit ``"comms"``
section) is present, seeded from the scenario seed (or
``comms["seed"]``). The ``"description"``, ``"horizon_s"`` and
``"chaos"`` keys carry provenance and fuzzing metadata for
:mod:`repro.harness.oracles` / :mod:`repro.harness.fuzz`: the loader
checks them but builds nothing from them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.geo import EnuFrame, GeoPoint
from repro.middleware.attacks import SpoofingAttack
from repro.plan.astar import route_waypoints
from repro.plan.grid import ObstacleField, PlanError
from repro.sar.coverage import CameraConfig
from repro.middleware.degraded import DegradedBus
from repro.schema import COMM_FAULT_TYPES, SAR, ScenarioError, schema_for
from repro.uav.battery import BatterySpec
from repro.uav.environment import Environment, GustProcess
from repro.uav.faults import (
    FaultSchedule,
    battery_collapse,
    camera_degradation,
    comm_blackout,
    comm_degradation,
    gps_denial,
    gps_spoof,
    imu_failure,
    motor_failure,
    network_partition,
)
from repro.uav.uav import Uav, UavSpec
from repro.uav.world import World, engine_for


@dataclass
class Scenario:
    """A loaded scenario: the world plus its fault schedule."""

    world: World
    faults: FaultSchedule = field(default_factory=FaultSchedule)
    config: dict[str, Any] = field(default_factory=dict)

    def step(self) -> float:
        """Advance the world and the fault campaign together."""
        now = self.world.step()
        self.faults.step(now, self.world.uavs)
        return now


def _names_uav(value: Any, uav_ids) -> bool:
    return isinstance(value, str) and value in uav_ids


def _partition_group(
    members: list, uav_ids: set[str], field_name: str
) -> tuple[str, ...]:
    """One partition side: every member must be a UAV of the fleet."""
    for i, member in enumerate(members):
        if not _names_uav(member, uav_ids):
            raise ScenarioError(
                f"{field_name}[{i}]: partition names unknown uav {member!r}"
            )
    return tuple(members)


def _build_fault(
    spec: dict[str, Any],
    where: str,
    bus: DegradedBus | None,
    uav_ids: set[str],
):
    """One fault from its checked values (:data:`repro.schema.SAR`)."""
    kind, at, duration = spec["type"], spec["at"], spec.get("duration")
    if kind == "network_partition":
        # Partitions split the fleet; they have groups, not a single target.
        group_a = _partition_group(spec["group_a"], uav_ids, f"{where}.group_a")
        group_b = _partition_group(spec["group_b"], uav_ids, f"{where}.group_b")
        overlap = set(group_a) & set(group_b)
        if overlap:
            raise ScenarioError(
                f"{where}.group_b: partition groups overlap on "
                f"{sorted(overlap)!r}"
            )
        return network_partition(bus, group_a, group_b, at, duration)
    uav = spec["uav"]
    if not _names_uav(uav, uav_ids):
        raise ScenarioError(f"{where}.uav: fault targets unknown uav {uav!r}")
    if kind == "comm_blackout":
        return comm_blackout(bus, uav, at, duration)
    if kind == "comm_degradation":
        return comm_degradation(bus, uav, at, spec["loss"], duration)
    if kind == "battery_collapse":
        return battery_collapse(uav, at, spec["soc_drop_to"])
    if kind == "gps_denial":
        return gps_denial(uav, at, duration)
    if kind == "gps_spoof":
        return gps_spoof(uav, at, spec["offset"])
    if kind == "camera_degradation":
        return camera_degradation(uav, at, spec["rate"])
    if kind == "imu_failure":
        return imu_failure(uav, at)
    return motor_failure(uav, at)


def _build_obstacles(
    spec: dict[str, Any], area: tuple[float, float]
) -> ObstacleField:
    """Build the 3D obstacle field from a checked ``"obstacles"`` block."""
    boxes = []
    top = 0.0
    for i, box in enumerate(spec["boxes"]):
        lo, hi = box["min"], box["max"]
        if any(h <= l for l, h in zip(lo, hi)):
            raise ScenarioError(
                f"obstacles.boxes[{i}]: min {lo!r} must be strictly below "
                f"max {hi!r}"
            )
        boxes.append((lo, hi))
        top = max(top, hi[2])
    cylinders = []
    for cyl in spec["cylinders"]:
        cylinders.append((cyl["center"], cyl["radius"], cyl["height"]))
        top = max(top, cyl["height"])
    cell, inflation, ceiling = spec["cell_m"], spec["inflation_m"], spec["ceiling_m"]
    if ceiling is None:
        # Leave a guaranteed-free layer above the tallest obstacle (even
        # after inflation) so free space stays connected and the planner
        # can always route over the top.
        ceiling = top + inflation + 2.0 * cell
    return ObstacleField.build(
        size_m=(area[0], area[1], ceiling),
        cell_m=cell,
        boxes=boxes,
        cylinders=cylinders,
        inflation_m=inflation,
    )


def load_scenario(config: dict[str, Any], engine: str | None = None) -> Scenario:
    """Build a runnable scenario from a configuration dict.

    Raises :class:`ScenarioError`, naming the field, on the first value
    :data:`repro.schema.SAR` rejects or on a rule that spans keys. The
    world's step implementation comes from the fleet size
    (:func:`~repro.uav.world.engine_for`); ``engine`` overrides it for
    the engine-lockstep oracles and the differential tests.
    """
    c = SAR.load(config)
    seed = c["seed"]
    rng = np.random.default_rng(seed)
    area = c["area_size_m"]

    # Comm faults act on the transport, so they force a DegradedBus; an
    # explicit "comms" section does too (e.g. to pin its loss-draw seed).
    degraded_bus: DegradedBus | None = None
    bus_kwargs = {}
    if c["comms"] is not None or any(
        spec["type"] in COMM_FAULT_TYPES for spec in c["faults"]
    ):
        comm_seed = (c["comms"] or {}).get("seed")
        degraded_bus = DegradedBus(
            rng=np.random.default_rng(seed + 3 if comm_seed is None else comm_seed)
        )
        bus_kwargs["bus"] = degraded_bus

    world = World(
        frame=EnuFrame(origin=GeoPoint(35.1456, 33.4299, 0.0)),
        rng=rng,
        area_size_m=area,
        dt=c["dt"],
        engine=engine_for(len(c["uavs"])) if engine is None else engine,
        **bus_kwargs,
    )

    if c["obstacles"] is not None:
        world.obstacles = _build_obstacles(c["obstacles"], area)
    if c["camera"] is not None:
        world.camera = CameraConfig(**c["camera"])

    env = c["environment"]
    if config.get("environment"):  # an empty section keeps the world's own
        world.environment = Environment(
            rng=np.random.default_rng(seed + 1),
            wind_direction_deg=env["wind_direction_deg"],
            gusts=GustProcess(
                rng=np.random.default_rng(seed + 2), mean_mps=env["wind_mean_mps"]
            ),
            ambient_c=env["ambient_c"],
            visibility=env["visibility"],
        )

    seen_ids = set()
    for position, uav_config in enumerate(c["uavs"]):
        uav_id = uav_config["id"]
        if uav_id in seen_ids:
            raise ScenarioError(f"uavs[{position}].id: duplicate uav id {uav_id!r}")
        seen_ids.add(uav_id)
        base = uav_config["base"]
        uav = Uav(
            spec=UavSpec(
                uav_id=uav_id,
                rotor_count=uav_config["rotors"],
                base_position=base,
                battery_spec=BatterySpec(),
            ),
            frame=world.frame,
            bus=world.bus,
            rng=rng,
        )
        if uav_config["max_speed_mps"] is not None:
            uav.dynamics.max_speed_mps = uav_config["max_speed_mps"]
        world.add_uav(uav)
        waypoints = uav_config["mission"]
        if waypoints is not None:
            if world.obstacles is not None:
                # Route the mission legs around the obstacle field so the
                # archived waypoints may cut through buildings but the
                # flown plan never does.
                try:
                    waypoints = route_waypoints(world.obstacles, base, waypoints)
                except PlanError as exc:
                    raise ScenarioError(
                        f"uavs[{position}] ({uav_id}).mission: {exc}"
                    ) from exc
            uav.start_mission(waypoints)

    if c["persons"]:
        world.scatter_persons(c["persons"])

    faults = FaultSchedule()
    for index, fault_spec in enumerate(c["faults"]):
        faults.add(_build_fault(fault_spec, f"faults[{index}]", degraded_bus, seen_ids))

    for index, attack in enumerate(c["attacks"]):
        sender = attack["sender"]
        if not _names_uav(sender, world.uavs):
            raise ScenarioError(
                f"attacks[{index}].sender: attack impersonates unknown uav {sender!r}"
            )
        world.add_attacker(
            SpoofingAttack(
                bus=world.bus,
                t_start=attack["start"],
                t_stop=attack["stop"],
                name=attack["name"],
                topic=attack["topic"],
                spoofed_sender=sender,
                payload_fn=lambda now: {"forged": True, "t": now},
                rate_hz=attack["rate_hz"],
            )
        )

    return Scenario(world=world, faults=faults, config=dict(config))


def lint_scenario(config: Any) -> list[str]:
    """Lint a scenario config of either kind; returns its problems (empty = clean).

    Reads ``config`` against its kind's declaration
    (:func:`repro.schema.schema_for`), naming every wrong value and
    unknown key, then, when that is clean, builds it with its loader to
    catch the rules that span keys (duplicate ids, fault targets,
    unroutable missions). Never raises; each problem names its field.
    Backs ``python -m repro scenario validate`` and ``replay``.
    """
    if not isinstance(config, dict):
        return [f"scenario must be a JSON object, got {type(config).__name__}"]
    schema = schema_for(config)
    problems = schema.check(config, lint=True)[1]
    if problems:
        return problems
    try:
        if schema is SAR:
            load_scenario(config)
        else:
            from repro.swarm.sim import build_swarm

            build_swarm(config).close()
    except ScenarioError as exc:
        return [str(exc)]
    return []
