"""Declarative scenario configuration.

A downstream user should be able to describe a whole experiment — fleet,
environment, persons, faults, attacks — as one JSON-serialisable dict and
get a ready world back, instead of writing builder code. This module is
that loader; it is also how regression scenarios are archived next to the
results they produced.

Schema (all sections optional except ``uavs``)::

    {
      "seed": 7,
      "area_size_m": [400, 300],
      "dt": 0.5,
      "environment": {"wind_mean_mps": 5, "wind_direction_deg": 270,
                       "ambient_c": 30, "visibility": "good"},
      "obstacles": {                       # optional 3D obstacle field
        "cell_m": 4.0, "inflation_m": 3.0, "ceiling_m": 60.0,
        "boxes": [{"min": [100, 100, 0], "max": [140, 160, 30]}],
        "cylinders": [{"center": [220, 80], "radius": 12, "height": 25}]
      },
      "camera": {"half_fov_deg": 35.0, "overlap": 0.15},
      "persons": 8,
      "uavs": [
        {"id": "uav1", "base": [30, -20, 0], "rotors": 4,
         "max_speed_mps": 10,
         "mission": [[120, 80, 25], [260, 140, 25]]},
        ...
      ],
      "faults": [
        {"type": "battery_collapse", "uav": "uav1", "at": 250,
         "soc_drop_to": 0.4},
        {"type": "gps_denial", "uav": "uav2", "at": 60, "duration": 30},
        {"type": "gps_spoof", "uav": "uav3", "at": 100,
         "offset": [40, 0, 0]},
        {"type": "camera_degradation", "uav": "uav1", "at": 10,
         "rate": 0.02},
        {"type": "imu_failure", "uav": "uav2", "at": 80},
        {"type": "motor_failure", "uav": "uav1", "at": 120},
        {"type": "comm_blackout", "uav": "uav2", "at": 40, "duration": 20},
        {"type": "comm_degradation", "uav": "uav1", "at": 30,
         "loss": 0.5, "duration": 25},
        {"type": "network_partition", "group_a": ["uav1"],
         "group_b": ["uav2", "uav3"], "at": 50, "duration": 30}
      ],
      "attacks": [
        {"type": "ros_spoofing", "topic": "/uav1/pose", "sender": "uav1",
         "start": 60, "stop": 180, "rate_hz": 5}
      ],
      "comms": {"seed": 11}   # force a DegradedBus transport
    }

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
``comms["seed"]``). The ``"description"``, ``"horizon_s"``, and
``"chaos"`` keys are ignored by the loader — they carry provenance and
fuzzing metadata for :mod:`repro.harness.oracles` /
:mod:`repro.harness.fuzz` — but are schema-checked by
:func:`lint_scenario` (the ``python -m repro scenario validate`` CLI).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.geo import EnuFrame, GeoPoint
from repro.middleware.attacks import SpoofingAttack
from repro.plan.astar import route_waypoints
from repro.plan.grid import ObstacleField, PlanError
from repro.sar.coverage import CameraConfig
from repro.middleware.degraded import DegradedBus
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

#: Fault types that act on the transport rather than a vehicle; their
#: presence makes the loader build a :class:`DegradedBus`.
COMM_FAULT_TYPES = ("comm_blackout", "comm_degradation", "network_partition")


class ScenarioError(ValueError):
    """Raised for malformed scenario configurations."""


def _number(value: Any, field_name: str) -> float:
    """Coerce one scalar config value, naming the field on failure."""
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ScenarioError(
            f"{field_name}: expected a number, got {value!r}"
        ) from None


def _integer(value: Any, field_name: str) -> int:
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ScenarioError(
            f"{field_name}: expected an integer, got {value!r}"
        ) from None


def _vector(value: Any, length: int, field_name: str) -> tuple[float, ...]:
    """Coerce a fixed-length numeric sequence, naming the field on failure."""
    if not isinstance(value, (list, tuple)) or len(value) != length:
        raise ScenarioError(
            f"{field_name}: expected {length} numbers, got {value!r}"
        )
    return tuple(_number(v, f"{field_name}[{i}]") for i, v in enumerate(value))


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

    def run_until(self, t_end: float, callback=None) -> None:
        """Step to ``t_end`` with the fault campaign active."""
        while self.world.time < t_end:
            self.step()
            if callback is not None:
                callback(self)


def _partition_group(
    value: Any, uav_ids: set[str], field_name: str
) -> tuple[str, ...]:
    """Coerce one partition side: a non-empty list of known UAV ids."""
    if not isinstance(value, (list, tuple)) or not value:
        raise ScenarioError(
            f"{field_name}: expected a non-empty list of uav ids, got {value!r}"
        )
    for i, member in enumerate(value):
        if member not in uav_ids:
            raise ScenarioError(
                f"{field_name}[{i}]: partition names unknown uav {member!r}"
            )
    return tuple(value)


def _build_fault(
    spec: dict[str, Any],
    index: int,
    bus: DegradedBus | None,
    uav_ids: set[str],
):
    where = f"faults[{index}]"
    kind = spec.get("type")
    if kind in COMM_FAULT_TYPES and bus is None:
        raise ScenarioError(  # pragma: no cover — loader always builds one
            f"{where}: comm fault {kind!r} needs a DegradedBus transport"
        )
    if kind == "network_partition":
        # Partitions split the fleet; they have groups, not a single target.
        if spec.get("at") is None:
            raise ScenarioError(f"{where}: fault needs type/at: {spec!r}")
        at = _number(spec["at"], f"{where}.at")
        group_a = _partition_group(spec.get("group_a"), uav_ids, f"{where}.group_a")
        group_b = _partition_group(spec.get("group_b"), uav_ids, f"{where}.group_b")
        overlap = set(group_a) & set(group_b)
        if overlap:
            raise ScenarioError(
                f"{where}.group_b: partition groups overlap on "
                f"{sorted(overlap)!r}"
            )
        duration = spec.get("duration")
        return network_partition(
            bus, group_a, group_b, at,
            _number(duration, f"{where}.duration") if duration is not None
            else None,
        )
    uav = spec.get("uav")
    if kind is None or uav is None or spec.get("at") is None:
        raise ScenarioError(f"{where}: fault needs type/uav/at: {spec!r}")
    at = _number(spec["at"], f"{where}.at")
    if kind == "comm_blackout":
        if spec.get("duration") is None:
            raise ScenarioError(f"{where}.duration: comm_blackout needs one")
        return comm_blackout(
            bus, uav, at, _number(spec["duration"], f"{where}.duration")
        )
    if kind == "comm_degradation":
        duration = spec.get("duration")
        loss = _number(spec.get("loss", 0.5), f"{where}.loss")
        if not 0.0 <= loss <= 1.0:
            raise ScenarioError(
                f"{where}.loss: must be in [0, 1], got {loss!r}"
            )
        return comm_degradation(
            bus, uav, at, loss,
            _number(duration, f"{where}.duration") if duration is not None
            else None,
        )
    if kind == "battery_collapse":
        return battery_collapse(
            uav, at, _number(spec.get("soc_drop_to", 0.4), f"{where}.soc_drop_to")
        )
    if kind == "gps_denial":
        duration = spec.get("duration")
        return gps_denial(
            uav, at,
            _number(duration, f"{where}.duration") if duration else None,
        )
    if kind == "gps_spoof":
        return gps_spoof(uav, at, _vector(spec.get("offset"), 3, f"{where}.offset"))
    if kind == "camera_degradation":
        return camera_degradation(
            uav, at, _number(spec.get("rate", 0.02), f"{where}.rate")
        )
    if kind == "imu_failure":
        return imu_failure(uav, at)
    if kind == "motor_failure":
        return motor_failure(uav, at)
    raise ScenarioError(f"{where}: unknown fault type {kind!r}")


def _build_obstacles(
    spec: Any, area: tuple[float, float]
) -> ObstacleField:
    """Build the 3D obstacle field from an ``"obstacles"`` config block."""
    if not isinstance(spec, dict):
        raise ScenarioError(
            f"obstacles: expected an object, got {spec!r}"
        )
    cell = _number(spec.get("cell_m", 4.0), "obstacles.cell_m")
    if cell <= 0.0:
        raise ScenarioError(f"obstacles.cell_m: must be positive, got {cell!r}")
    inflation = _number(spec.get("inflation_m", 3.0), "obstacles.inflation_m")
    if inflation < 0.0:
        raise ScenarioError(
            f"obstacles.inflation_m: must be >= 0, got {inflation!r}"
        )
    box_specs = spec.get("boxes", ())
    if not isinstance(box_specs, (list, tuple)):
        raise ScenarioError(
            f"obstacles.boxes: expected a list, got {box_specs!r}"
        )
    boxes = []
    top = 0.0
    for i, box in enumerate(box_specs):
        where = f"obstacles.boxes[{i}]"
        if not isinstance(box, dict):
            raise ScenarioError(f"{where}: expected an object, got {box!r}")
        lo = _vector(box.get("min"), 3, f"{where}.min")
        hi = _vector(box.get("max"), 3, f"{where}.max")
        if any(h <= l for l, h in zip(lo, hi)):
            raise ScenarioError(
                f"{where}: min {lo!r} must be strictly below max {hi!r}"
            )
        boxes.append((lo, hi))
        top = max(top, hi[2])
    cyl_specs = spec.get("cylinders", ())
    if not isinstance(cyl_specs, (list, tuple)):
        raise ScenarioError(
            f"obstacles.cylinders: expected a list, got {cyl_specs!r}"
        )
    cylinders = []
    for i, cyl in enumerate(cyl_specs):
        where = f"obstacles.cylinders[{i}]"
        if not isinstance(cyl, dict):
            raise ScenarioError(f"{where}: expected an object, got {cyl!r}")
        center = _vector(cyl.get("center"), 2, f"{where}.center")
        radius = _number(cyl.get("radius"), f"{where}.radius")
        height = _number(cyl.get("height"), f"{where}.height")
        if radius <= 0.0 or height <= 0.0:
            raise ScenarioError(
                f"{where}: radius/height must be positive, got "
                f"{radius!r}/{height!r}"
            )
        cylinders.append((center, radius, height))
        top = max(top, height)
    # Default ceiling leaves a guaranteed-free layer above the tallest
    # obstacle (even after inflation) so free space stays connected and
    # the planner can always route over the top.
    ceiling = _number(
        spec.get("ceiling_m", top + inflation + 2.0 * cell), "obstacles.ceiling_m"
    )
    if ceiling <= 0.0:
        raise ScenarioError(
            f"obstacles.ceiling_m: must be positive, got {ceiling!r}"
        )
    return ObstacleField.build(
        size_m=(area[0], area[1], ceiling),
        cell_m=cell,
        boxes=boxes,
        cylinders=cylinders,
        inflation_m=inflation,
    )


def _build_camera(spec: Any) -> CameraConfig:
    """Build the camera geometry from a ``"camera"`` config block."""
    if not isinstance(spec, dict):
        raise ScenarioError(f"camera: expected an object, got {spec!r}")
    half_fov = _number(spec.get("half_fov_deg", 35.0), "camera.half_fov_deg")
    if not 0.0 < half_fov < 90.0:
        raise ScenarioError(
            f"camera.half_fov_deg: must be in (0, 90), got {half_fov!r}"
        )
    overlap = _number(spec.get("overlap", 0.15), "camera.overlap")
    if not 0.0 <= overlap < 1.0:
        raise ScenarioError(
            f"camera.overlap: must be in [0, 1), got {overlap!r}"
        )
    return CameraConfig(half_fov_deg=half_fov, overlap=overlap)


def load_scenario(config: dict[str, Any], engine: str | None = None) -> Scenario:
    """Build a runnable scenario from a configuration dict.

    The world's step implementation comes from the fleet size
    (:func:`~repro.uav.world.engine_for`); ``engine`` overrides it for
    the engine-lockstep oracles and the differential tests.
    """
    uav_specs = config.get("uavs")
    if not uav_specs or not isinstance(uav_specs, (list, tuple)):
        raise ScenarioError("scenario needs a non-empty 'uavs' list")

    seed = _integer(config.get("seed", 0), "seed")
    rng = np.random.default_rng(seed)
    area = _vector(config.get("area_size_m", (400.0, 300.0)), 2, "area_size_m")
    dt = _number(config.get("dt", 0.5), "dt")
    if dt <= 0:
        raise ScenarioError(f"dt: must be positive, got {dt!r}")

    # Comm faults act on the transport, so they force a DegradedBus; an
    # explicit "comms" section does too (e.g. to pin its loss-draw seed).
    comms_config = config.get("comms")
    fault_specs = config.get("faults", ())
    if not isinstance(fault_specs, (list, tuple)):
        raise ScenarioError(
            f"faults: expected a list of fault objects, got {fault_specs!r}"
        )
    needs_degraded = comms_config is not None or any(
        isinstance(spec, dict) and spec.get("type") in COMM_FAULT_TYPES
        for spec in fault_specs
    )
    degraded_bus: DegradedBus | None = None
    bus_kwargs = {}
    if needs_degraded:
        comm_seed = _integer(
            (comms_config or {}).get("seed", seed + 3), "comms.seed"
        )
        degraded_bus = DegradedBus(rng=np.random.default_rng(comm_seed))
        bus_kwargs["bus"] = degraded_bus

    world = World(
        frame=EnuFrame(origin=GeoPoint(35.1456, 33.4299, 0.0)),
        rng=rng,
        area_size_m=(area[0], area[1]),
        dt=dt,
        engine=engine_for(len(uav_specs)) if engine is None else engine,
        **bus_kwargs,
    )

    obstacles_config = config.get("obstacles")
    if obstacles_config is not None:
        world.obstacles = _build_obstacles(obstacles_config, (area[0], area[1]))
    camera_config = config.get("camera")
    if camera_config is not None:
        world.camera = _build_camera(camera_config)

    env_config = config.get("environment")
    if env_config:
        visibility = env_config.get("visibility", "good")
        world.environment = Environment(
            rng=np.random.default_rng(seed + 1),
            wind_direction_deg=_number(
                env_config.get("wind_direction_deg", 270.0),
                "environment.wind_direction_deg",
            ),
            gusts=GustProcess(
                rng=np.random.default_rng(seed + 2),
                mean_mps=_number(
                    env_config.get("wind_mean_mps", 3.0),
                    "environment.wind_mean_mps",
                ),
            ),
            ambient_c=_number(
                env_config.get("ambient_c", 25.0), "environment.ambient_c"
            ),
            visibility=visibility,
        )

    seen_ids = set()
    for position, uav_config in enumerate(uav_specs):
        uav_id = uav_config.get("id")
        if not uav_id:
            raise ScenarioError(
                f"uavs[{position}]: uav entry needs an 'id': {uav_config!r}"
            )
        if uav_id in seen_ids:
            raise ScenarioError(f"uavs[{position}].id: duplicate uav id {uav_id!r}")
        seen_ids.add(uav_id)
        where = f"uavs[{position}] ({uav_id})"
        base = _vector(uav_config.get("base", (0.0, 0.0, 0.0)), 3, f"{where}.base")
        uav = Uav(
            spec=UavSpec(
                uav_id=uav_id,
                rotor_count=_integer(uav_config.get("rotors", 4), f"{where}.rotors"),
                base_position=base,
                battery_spec=BatterySpec(),
            ),
            frame=world.frame,
            bus=world.bus,
            rng=rng,
        )
        if "max_speed_mps" in uav_config:
            uav.dynamics.max_speed_mps = _number(
                uav_config["max_speed_mps"], f"{where}.max_speed_mps"
            )
        world.add_uav(uav)
        mission = uav_config.get("mission")
        if mission is not None:
            if not isinstance(mission, (list, tuple)) or not mission:
                raise ScenarioError(
                    f"{where}.mission: expected a non-empty waypoint list, "
                    f"got {mission!r}"
                )
            waypoints = [
                _vector(wp, 3, f"{where}.mission[{i}]")
                for i, wp in enumerate(mission)
            ]
            if world.obstacles is not None:
                # Route the mission legs around the obstacle field so the
                # archived waypoints may cut through buildings but the
                # flown plan never does.
                try:
                    waypoints = route_waypoints(world.obstacles, base, waypoints)
                except PlanError as exc:
                    raise ScenarioError(f"{where}.mission: {exc}") from exc
            uav.start_mission(waypoints)

    n_persons = _integer(config.get("persons", 0), "persons")
    if n_persons:
        world.scatter_persons(n_persons)

    faults = FaultSchedule()
    for index, fault_spec in enumerate(fault_specs):
        fault = _build_fault(fault_spec, index, degraded_bus, seen_ids)
        if fault.target_uav not in world.uavs:
            raise ScenarioError(
                f"faults[{index}].uav: fault targets unknown uav "
                f"{fault.target_uav!r}"
            )
        faults.add(fault)

    for index, attack_spec in enumerate(config.get("attacks", ())):
        where = f"attacks[{index}]"
        if attack_spec.get("type") != "ros_spoofing":
            raise ScenarioError(f"{where}.type: unknown attack type {attack_spec!r}")
        sender = attack_spec.get("sender", "uav1")
        if sender not in world.uavs:
            raise ScenarioError(
                f"{where}.sender: attack impersonates unknown uav {sender!r}"
            )
        world.add_attacker(
            SpoofingAttack(
                bus=world.bus,
                t_start=_number(attack_spec.get("start", 0.0), f"{where}.start"),
                t_stop=_number(
                    attack_spec.get("stop", float("inf")), f"{where}.stop"
                ),
                name=attack_spec.get("name", "adversary"),
                topic=attack_spec.get("topic", "/uav1/pose"),
                spoofed_sender=sender,
                payload_fn=lambda now: {"forged": True, "t": now},
                rate_hz=_number(
                    attack_spec.get("rate_hz", 5.0), f"{where}.rate_hz"
                ),
            )
        )

    return Scenario(world=world, faults=faults, config=dict(config))


def load_scenario_json(text: str) -> Scenario:
    """Load a scenario from a JSON document."""
    try:
        config = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"invalid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ScenarioError("scenario JSON must be an object")
    return load_scenario(config)


# ------------------------------------------------------------------ linting
#: Key vocabulary per schema section. ``load_scenario`` ignores unknown
#: keys (forward compatibility); the linter flags them, because in a
#: hand-edited file an unknown key is almost always a typo'd known one.
_KNOWN_TOP_KEYS = frozenset(
    {
        "description", "seed", "area_size_m", "dt", "environment",
        "persons", "uavs", "faults", "attacks", "comms", "horizon_s", "chaos",
        "obstacles", "camera",
    }
)
_KNOWN_ENV_KEYS = frozenset(
    {"wind_mean_mps", "wind_direction_deg", "ambient_c", "visibility"}
)
_KNOWN_OBSTACLES_KEYS = frozenset(
    {"cell_m", "inflation_m", "ceiling_m", "boxes", "cylinders"}
)
_KNOWN_BOX_KEYS = frozenset({"min", "max"})
_KNOWN_CYLINDER_KEYS = frozenset({"center", "radius", "height"})
_KNOWN_CAMERA_KEYS = frozenset({"half_fov_deg", "overlap"})
_KNOWN_UAV_KEYS = frozenset({"id", "base", "rotors", "max_speed_mps", "mission"})
_KNOWN_FAULT_KEYS: dict[str, frozenset[str]] = {
    "battery_collapse": frozenset({"type", "uav", "at", "soc_drop_to"}),
    "gps_denial": frozenset({"type", "uav", "at", "duration"}),
    "gps_spoof": frozenset({"type", "uav", "at", "offset"}),
    "camera_degradation": frozenset({"type", "uav", "at", "rate"}),
    "imu_failure": frozenset({"type", "uav", "at"}),
    "motor_failure": frozenset({"type", "uav", "at"}),
    "comm_blackout": frozenset({"type", "uav", "at", "duration"}),
    "comm_degradation": frozenset({"type", "uav", "at", "loss", "duration"}),
    "network_partition": frozenset(
        {"type", "at", "duration", "group_a", "group_b"}
    ),
}
_KNOWN_ATTACK_KEYS = frozenset(
    {"type", "topic", "sender", "start", "stop", "rate_hz", "name"}
)
_KNOWN_COMMS_KEYS = frozenset({"seed"})
_KNOWN_CHAOS_KEYS = frozenset({"mode", "uav", "at", "magnitude", "armed_file"})
_CHAOS_MODES = ("teleport", "soc_jump", "exception")


def _lint_unknown_keys(
    section: Any, known: frozenset[str], where: str, problems: list[str]
) -> None:
    if not isinstance(section, dict):
        return  # the loader reports the type error with more context
    for key in sorted(set(section) - known):
        problems.append(f"{where}.{key}: unknown key (known: {sorted(known)})")


def lint_scenario(config: Any) -> list[str]:
    """Lint a scenario config; returns a list of problems (empty = clean).

    Two layers: every :class:`ScenarioError` the loader itself raises
    (the config is actually built, so this catches everything the loader
    validates — duplicate ids, unknown fault targets, malformed vectors),
    plus schema checks the loader deliberately skips: unknown keys in any
    section, unknown chaos modes, and a non-positive fuzzing horizon.
    Backs ``python -m repro scenario validate`` — the pre-flight check
    for hand-edited and fuzz-minimized scenario files alike.
    """
    if not isinstance(config, dict):
        return [f"scenario must be a JSON object, got {type(config).__name__}"]
    problems: list[str] = []
    _lint_unknown_keys(config, _KNOWN_TOP_KEYS, "scenario", problems)
    _lint_unknown_keys(
        config.get("environment"), _KNOWN_ENV_KEYS, "environment", problems
    )
    _lint_unknown_keys(config.get("comms"), _KNOWN_COMMS_KEYS, "comms", problems)
    obstacles = config.get("obstacles")
    if obstacles is not None:
        _lint_unknown_keys(
            obstacles, _KNOWN_OBSTACLES_KEYS, "obstacles", problems
        )
        if isinstance(obstacles, dict):
            boxes = obstacles.get("boxes")
            if isinstance(boxes, (list, tuple)):
                for i, box in enumerate(boxes):
                    _lint_unknown_keys(
                        box, _KNOWN_BOX_KEYS, f"obstacles.boxes[{i}]", problems
                    )
            cylinders = obstacles.get("cylinders")
            if isinstance(cylinders, (list, tuple)):
                for i, cyl in enumerate(cylinders):
                    _lint_unknown_keys(
                        cyl, _KNOWN_CYLINDER_KEYS,
                        f"obstacles.cylinders[{i}]", problems,
                    )
    camera = config.get("camera")
    if camera is not None:
        _lint_unknown_keys(camera, _KNOWN_CAMERA_KEYS, "camera", problems)
    uavs = config.get("uavs")
    if isinstance(uavs, (list, tuple)):
        for i, uav in enumerate(uavs):
            _lint_unknown_keys(uav, _KNOWN_UAV_KEYS, f"uavs[{i}]", problems)
    faults = config.get("faults")
    if isinstance(faults, (list, tuple)):
        for i, fault in enumerate(faults):
            if not isinstance(fault, dict):
                continue
            known = _KNOWN_FAULT_KEYS.get(fault.get("type"))
            if known is not None:
                _lint_unknown_keys(fault, known, f"faults[{i}]", problems)
    attacks = config.get("attacks")
    if isinstance(attacks, (list, tuple)):
        for i, attack in enumerate(attacks):
            _lint_unknown_keys(
                attack, _KNOWN_ATTACK_KEYS, f"attacks[{i}]", problems
            )
    chaos = config.get("chaos")
    if chaos is not None:
        _lint_unknown_keys(chaos, _KNOWN_CHAOS_KEYS, "chaos", problems)
        if isinstance(chaos, dict) and chaos.get("mode") not in _CHAOS_MODES:
            problems.append(
                f"chaos.mode: expected one of {_CHAOS_MODES}, "
                f"got {chaos.get('mode')!r}"
            )
    horizon = config.get("horizon_s")
    if horizon is not None:
        try:
            if float(horizon) <= 0:
                problems.append(
                    f"horizon_s: must be positive, got {horizon!r}"
                )
        except (TypeError, ValueError):
            problems.append(f"horizon_s: expected a number, got {horizon!r}")
    try:
        load_scenario(config)
    except ScenarioError as exc:
        problems.append(str(exc))
    return problems
