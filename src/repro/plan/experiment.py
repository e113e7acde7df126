"""``planner-ablation`` campaign: fixed patterns vs planned tours.

The paper's fleets "cover large areas efficiently"; this campaign asks
whether that should mean fixed coverage patterns or planned inspection
tours once the world has obstacles in it. Every grid point runs the same
procedurally-built urban scenario (buildings + masts over a 320 m block)
under one of two strategies:

``pattern``
    The classic per-UAV boustrophedon strips from
    :class:`repro.sar.mission.SarMission.assign_paths`, routed around the
    obstacle field leg by leg.
``planned``
    Inspection-point tours from :mod:`repro.plan.routing`: a swath-spaced
    lattice of viewpoints, partitioned across the fleet in disjoint
    east-bands, ordered nearest-neighbour + 2-opt, then obstacle-routed.

Each sample records path length, time-to-first/all-found, find rate,
coverage and energy, plus a ``planned_path_clearance`` oracle block
asserting every launched plan clears the raw voxel grid — the CI smoke
job requires zero violations and a byte-identical manifest fingerprint
across worker counts. Run it like every other sweep::

    python -m repro campaign planner-ablation --preset smoke
    python -m repro campaign planner-ablation --preset default --workers 4
"""

from __future__ import annotations

import math

from repro.harness.campaign import (
    CampaignExperiment,
    CampaignResult,
    register_experiment,
)
from repro.harness.timing import PhaseTimer
from repro.plan.grid import blocked_legs
from repro.plan.routing import inspection_points, plan_inspection_tours
from repro.sar.mission import SarMission
from repro.scenario import load_scenario

#: Scenario seed pinned across grid points unless a point overrides it.
PINNED_SEED = 211

#: Strategies compared by the ablation.
STRATEGIES = ("pattern", "planned")


def urban_config(seed: int, persons: int) -> dict:
    """The campaign's urban world: one scenario, parameterised by seed.

    Built programmatically (not read from disk) so the sample function
    stays a pure function of its config — file contents can't leak into
    the manifest fingerprint. ``scenarios/urban_sar.json`` archives the
    same world shape for the scenario CLI and oracle suites.
    """
    return {
        "description": f"planner-ablation urban block seed={seed}",
        "seed": int(seed),
        "area_size_m": [320.0, 320.0],
        "dt": 0.5,
        "persons": int(persons),
        "camera": {"half_fov_deg": 35.0, "overlap": 0.15},
        "obstacles": {
            "cell_m": 4.0,
            "inflation_m": 3.0,
            "boxes": [
                {"min": [60.0, 40.0, 0.0], "max": [110.0, 120.0, 28.0]},
                {"min": [150.0, 60.0, 0.0], "max": [210.0, 110.0, 35.0]},
                {"min": [70.0, 190.0, 0.0], "max": [140.0, 250.0, 22.0]},
                {"min": [200.0, 180.0, 0.0], "max": [260.0, 260.0, 30.0]},
            ],
            "cylinders": [
                {"center": [260.0, 80.0], "radius": 10.0, "height": 38.0},
                {"center": [40.0, 290.0], "radius": 8.0, "height": 20.0},
            ],
        },
        "uavs": [
            {"id": "uav1", "base": [10.0, 10.0, 0.0], "rotors": 4},
            {"id": "uav2", "base": [160.0, 10.0, 0.0], "rotors": 4},
            {"id": "uav3", "base": [310.0, 10.0, 0.0], "rotors": 6},
        ],
    }


def _clearance_block(world, plans: dict[str, list]) -> dict:
    """``planned_path_clearance`` verdict for the launched plans.

    Checked against the *raw* grid — exactly what the harness oracle does
    during fuzzing — so a planner regression fails the campaign's oracle
    block (and the CI smoke job) rather than hiding in a metric.
    """
    violations = []
    grid = world.obstacles.grid
    for uav_id in sorted(plans):
        legs = [tuple(world.uavs[uav_id].spec.base_position)] + [
            tuple(wp) for wp in plans[uav_id]
        ]
        for i in blocked_legs(grid, legs):
            a, b = legs[i], legs[i + 1]
            violations.append(
                {
                    "oracle": "planned_path_clearance",
                    "uav": uav_id,
                    "message": (
                        f"leg {tuple(round(v, 1) for v in a)} -> "
                        f"{tuple(round(v, 1) for v in b)} crosses an "
                        "obstacle"
                    ),
                }
            )
    return {
        "passed": not violations,
        "checked": ["planned_path_clearance"],
        "violations": violations,
    }


def planner_ablation_sample(config: dict, seed: int, timer: PhaseTimer) -> dict:
    """One ablation sample: the urban scenario under one strategy."""
    strategy = config.get("strategy", "pattern")
    if strategy not in STRATEGIES:
        raise ValueError(
            f"strategy: expected one of {STRATEGIES}, got {strategy!r}"
        )
    run_seed = int(config.get("seed", seed))
    persons = int(config.get("persons", 6))
    horizon_s = float(config.get("horizon_s", 240.0))
    altitude_m = float(config.get("altitude_m", 24.0))

    with timer.phase("load"):
        scenario = load_scenario(urban_config(run_seed, persons))
    world = scenario.world
    mission = SarMission(world=world, altitude_m=altitude_m)

    with timer.phase("plan"):
        if strategy == "pattern":
            plans = mission.assign_paths()
        else:
            spacing = mission.camera.swath_width_m(altitude_m)
            points = inspection_points(
                world.area_size_m[0], spacing, altitude_m, world.obstacles
            )
            uav_ids = sorted(world.uavs)
            starts = [
                tuple(world.uavs[uav_id].dynamics.position)
                for uav_id in uav_ids
            ]
            tours = plan_inspection_tours(starts, points, world.obstacles)
            plans = {}
            for uav_id, tour in zip(uav_ids, tours):
                if tour:
                    world.uavs[uav_id].start_mission(tour)
                plans[uav_id] = tour
            mission.metrics.started_at = world.time
            mission.metrics.persons_total = len(world.persons)

    soc_start = {
        uav_id: uav.battery.soc for uav_id, uav in world.uavs.items()
    }
    with timer.phase("simulate"):
        while not mission.mission_complete and world.time < horizon_s:
            mission.step()

    detected = [p.detected_at for p in world.persons if p.detected]
    metrics = mission.metrics
    return {
        "strategy": strategy,
        "seed": run_seed,
        "persons": persons,
        "horizon_s": horizon_s,
        "altitude_m": altitude_m,
        "path_length_m": round(
            sum(
                sum(math.dist(a, b) for a, b in zip(plan, plan[1:]))
                for plan in plans.values()
            ),
            3,
        ),
        "plan_waypoints": sum(len(plan) for plan in plans.values()),
        "time_to_first_find_s": min(detected) if detected else None,
        "time_to_all_found_s": (
            max(detected) if len(detected) == len(world.persons) else None
        ),
        "find_rate": round(metrics.find_rate, 6) if world.persons else None,
        "coverage_fraction": round(metrics.coverage_fraction, 6),
        "energy_soc": round(
            sum(
                soc_start[uav_id] - uav.battery.soc
                for uav_id, uav in world.uavs.items()
            ),
            9,
        ),
        "completed": mission.mission_complete,
        "oracles": _clearance_block(world, plans),
    }


def planner_ablation_grid(preset: str) -> list[dict]:
    """Grid presets; smoke is the CI gate, full sweeps altitude too."""
    if preset == "smoke":
        return [
            {"strategy": strategy, "seed": PINNED_SEED + i,
             "persons": 6, "horizon_s": 240.0}
            for strategy in STRATEGIES
            for i in range(2)
        ]
    if preset == "default":
        return [
            {"strategy": strategy, "seed": PINNED_SEED + i,
             "persons": 10, "horizon_s": 420.0}
            for strategy in STRATEGIES
            for i in range(5)
        ]
    if preset == "full":
        return [
            {"strategy": strategy, "seed": PINNED_SEED + i,
             "persons": 10, "horizon_s": 420.0, "altitude_m": altitude}
            for strategy in STRATEGIES
            for altitude in (18.0, 24.0, 30.0)
            for i in range(8)
        ]
    raise ValueError(f"unknown planner-ablation grid preset {preset!r}")


def summarize_planner_ablation(campaign: CampaignResult) -> str:
    """Path length × time-to-find × energy, side by side per strategy."""
    lines = [
        "strategy  seed   path len    first find  all found   found   cover   energy",
        "--------  -----  ----------  ----------  ----------  ------  ------  -------",
    ]
    for r in campaign.results:
        first = (
            f"{r['time_to_first_find_s']:>8.1f} s"
            if r["time_to_first_find_s"] is not None else "       — "
        )
        done = (
            f"{r['time_to_all_found_s']:>8.1f} s"
            if r["time_to_all_found_s"] is not None else "       — "
        )
        found = (
            f"{100 * r['find_rate']:>5.0f}%" if r["find_rate"] is not None
            else "    —"
        )
        lines.append(
            f"{r['strategy']:<9} {r['seed']:<6} "
            f"{r['path_length_m']:>8.0f} m  {first}  {done}  {found}  "
            f"{100 * r['coverage_fraction']:>5.1f}%  {r['energy_soc']:>7.4f}"
        )
    return "\n".join(lines)


PLANNER_ABLATION_CAMPAIGN = register_experiment(
    CampaignExperiment(
        name="planner-ablation",
        sample_fn=planner_ablation_sample,
        grids=planner_ablation_grid,
        describe="Obstacle-aware planning: fixed patterns vs planned tours",
        summarize=summarize_planner_ablation,
        presets=("smoke", "default", "full"),
    )
)
