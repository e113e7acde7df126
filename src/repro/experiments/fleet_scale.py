"""Fleet-scaling study: SAR coverage time versus fleet size.

The paper's platform demonstration flies three UAVs; the obvious
operational question is how search-and-rescue performance scales when
the fleet grows. This study sweeps fleet size over the same search area
and measures how long full coverage takes — the marginal value of each
additional airframe. Fleets from ``VECTORIZED_MIN_UAVS`` up fly on the
vectorized fleet engine (:mod:`repro.uav.fleet`), so the 50- and 100-UAV
points stay cheap.

Because the vectorized engine is bit-identical to the scalar reference
(see ``tests/test_fleet_equivalence.py``), every number below is exactly
what the scalar simulator would produce; the engine only changes
wall-clock cost, which the study also records per point.

Runs on the :mod:`repro.harness` campaign engine as ``fleet-scale``
(``python -m repro campaign fleet-scale``), so points shard across
workers and cache on disk like every other sweep. A direct entry point
``python -m repro fleet-scale`` renders the sweep as a table.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.experiments.common import build_three_uav_world
from repro.harness.campaign import (
    CampaignExperiment,
    CampaignResult,
    register_experiment,
    run_campaign,
)
from repro.harness.timing import PhaseTimer
from repro.sar.mission import SarMission

#: Default fleet sizes swept by the direct entry point.
DEFAULT_FLEET_SIZES = (3, 10, 25, 50)


@dataclass(frozen=True)
class FleetScalePoint:
    """One fleet size flown to coverage (or the time budget)."""

    n_uavs: int
    seed: int
    coverage_fraction: float
    duration_s: float | None  # sim time to mission completion, None if budget hit
    sim_time_s: float  # sim time actually flown
    persons_found: int
    persons_total: int
    wall_s: float  # wall-clock cost of the sim loop


@dataclass(frozen=True)
class FleetScaleResult:
    """The sweep: coverage time as a function of fleet size."""

    points: tuple[FleetScalePoint, ...]

    def render(self) -> str:
        """The fleet-size/coverage-time table for the CLI."""
        lines = [
            "uavs   coverage   mission time   found     wall",
            "-----  ---------  -------------  --------  --------",
        ]
        for p in self.points:
            mission = f"{p.duration_s:>9.0f} s" if p.duration_s is not None else (
                f" >{p.sim_time_s:>7.0f} s"
            )
            lines.append(
                f"{p.n_uavs:<6} {100 * p.coverage_fraction:>7.0f}%  "
                f"{mission:>13}  {p.persons_found}/{p.persons_total:<7} "
                f"{p.wall_s:>6.2f} s"
            )
        return "\n".join(lines)


def run_fleet_scale_point(
    n_uavs: int,
    seed: int = 21,
    max_time_s: float = 3600.0,
    n_persons: int = 8,
) -> FleetScalePoint:
    """Fly one coverage mission with ``n_uavs`` UAVs and measure it."""
    scenario = build_three_uav_world(seed=seed, n_persons=n_persons, n_uavs=n_uavs)
    mission = SarMission(world=scenario.world)
    mission.assign_paths()
    start = time.perf_counter()
    metrics = mission.run(max_time_s=max_time_s)
    wall = time.perf_counter() - start
    return FleetScalePoint(
        n_uavs=n_uavs,
        seed=seed,
        coverage_fraction=metrics.coverage_fraction,
        duration_s=metrics.duration_s,
        sim_time_s=scenario.world.time,
        persons_found=metrics.persons_found,
        persons_total=metrics.persons_total,
        wall_s=wall,
    )


def run_assurance_scale_point(
    n_uavs: int,
    seed: int = 21,
    max_time_s: float = 60.0,
    eddi_period_s: float = 2.0,
    n_persons: int = 8,
) -> dict:
    """Fly a coverage mission with the assurance plane cycling alongside.

    The plain fleet-scale point measures coverage only; this variant
    additionally runs the full assurance plane (:func:`build_assurance`:
    SafeDrones, the spoof detector, ConSert evaluation, mission
    decider) at the 2 Hz EDDI rate, so a campaign over it exercises the
    batched plane end to end at fleet scale and records its per-cycle
    cost in the manifest. ``assurance_engine`` records which plane ran.
    """
    from repro.core.batch import build_assurance
    from repro.core.decider import mission_decision

    scenario = build_three_uav_world(seed=seed, n_persons=n_persons, n_uavs=n_uavs)
    world = scenario.world
    mission = SarMission(world=world)
    mission.assign_paths()
    plane = build_assurance(world)
    cycle_every = max(1, int(round(eddi_period_s / world.dt)))
    verdicts: list[str] = []
    assurance_wall = 0.0
    steps = 0
    start = time.perf_counter()
    while not mission.mission_complete and world.time < max_time_s:
        mission.step()
        steps += 1
        if steps % cycle_every == 0:
            cycle_start = time.perf_counter()
            # The verdict over the guarantees this cycle just diagnosed.
            verdicts.append(mission_decision(plane.step(world.time)).verdict.name)
            assurance_wall += time.perf_counter() - cycle_start
    wall = time.perf_counter() - start
    metrics = mission.metrics
    transitions = sum(
        len(plane.response_log(uav_id)) for uav_id in plane.uav_ids
    )
    return {
        "seed": seed,
        "n_uavs": n_uavs,
        "coverage_fraction": metrics.coverage_fraction,
        "duration_s": metrics.duration_s,
        "sim_time_s": world.time,
        "persons_found": metrics.persons_found,
        "persons_total": metrics.persons_total,
        "wall_s": wall,
        "assurance_engine": plane.engine,
        "assurance_cycles": len(verdicts),
        "assurance_cycle_ms": round(
            1e3 * assurance_wall / max(1, len(verdicts)), 3
        ),
        "final_verdict": verdicts[-1] if verdicts else None,
        "guarantee_transitions": transitions,
    }


def fleet_scale_sample(config: dict, seed: int, timer: PhaseTimer) -> dict:
    """One campaign sample: a coverage mission at one fleet size.

    ``config`` may pin an explicit ``seed`` (the sweep flies every fleet
    size over the same person field so the fleet-size axis is the only
    thing that varies); otherwise the harness-assigned stream seed is
    used. With ``assurance: true`` the sample also cycles the full
    assurance plane (scalar or batched, following the world's engine)
    and reports its cost alongside the coverage numbers.
    """
    run_seed = int(config.get("seed", seed))
    if config.get("assurance"):
        with timer.phase("simulate"):
            return run_assurance_scale_point(
                n_uavs=int(config["n_uavs"]),
                seed=run_seed,
                max_time_s=float(config.get("max_time_s", 60.0)),
                eddi_period_s=float(config.get("eddi_period_s", 2.0)),
            )
    with timer.phase("simulate"):
        point = run_fleet_scale_point(
            n_uavs=int(config["n_uavs"]),
            seed=run_seed,
            max_time_s=float(config.get("max_time_s", 3600.0)),
        )
    return {
        "seed": run_seed,
        "n_uavs": point.n_uavs,
        "coverage_fraction": point.coverage_fraction,
        "duration_s": point.duration_s,
        "sim_time_s": point.sim_time_s,
        "persons_found": point.persons_found,
        "persons_total": point.persons_total,
        "wall_s": point.wall_s,
    }


def fleet_scale_grid(preset: str) -> list[dict]:
    """Fleet-size grids; smoke pins a short flight on each side of the
    ``VECTORIZED_MIN_UAVS`` rule (3 UAVs per-UAV, 50 UAVs vectorized)."""
    if preset == "smoke":
        # CI-sized: prove both world engines end to end without waiting
        # for full coverage.
        return [
            {"n_uavs": 3, "max_time_s": 120.0},
            {"n_uavs": 50, "max_time_s": 120.0},
        ]
    if preset == "assurance-smoke":
        # CI-sized: cycle the scalar plane over the 3-UAV anchor and the
        # batched plane over a 50-UAV fleet, end to end.
        return [
            {"n_uavs": 3, "max_time_s": 30.0, "assurance": True},
            {"n_uavs": 50, "max_time_s": 30.0, "assurance": True},
        ]
    if preset == "default":
        return [{"n_uavs": n} for n in DEFAULT_FLEET_SIZES]
    if preset == "full":
        return [{"n_uavs": n} for n in (*DEFAULT_FLEET_SIZES, 100)]
    raise ValueError(f"unknown fleet-scale grid preset {preset!r}")


def result_from_campaign(campaign: CampaignResult) -> FleetScaleResult:
    """Reassemble the sweep result object from campaign sample records."""
    return FleetScaleResult(
        points=tuple(
            FleetScalePoint(
                n_uavs=r["n_uavs"],
                seed=r["seed"],
                coverage_fraction=r["coverage_fraction"],
                duration_s=r["duration_s"],
                sim_time_s=r["sim_time_s"],
                persons_found=r["persons_found"],
                persons_total=r["persons_total"],
                wall_s=r["wall_s"],
            )
            for r in campaign.results
        )
    )


def summarize_fleet_scale(campaign: CampaignResult) -> str:
    """The fleet-size/coverage table for the campaign CLI."""
    return result_from_campaign(campaign).render()


FLEET_SCALE_CAMPAIGN = register_experiment(
    CampaignExperiment(
        name="fleet-scale",
        sample_fn=fleet_scale_sample,
        grids=fleet_scale_grid,
        describe="SAR coverage time vs fleet size",
        summarize=summarize_fleet_scale,
        presets=("smoke", "assurance-smoke", "default", "full"),
    )
)


def run_fleet_scale_experiment(
    fleet_sizes: tuple[int, ...] = DEFAULT_FLEET_SIZES,
    seed: int = 21,
    max_time_s: float = 3600.0,
    workers: int = 1,
    cache_dir=None,
) -> FleetScaleResult:
    """Sweep fleet size and report coverage time per point.

    Runs through the campaign engine — pass ``workers`` to shard the
    fleet sizes across processes and ``cache_dir`` to reuse completed
    points. Every size flies the same seeded person field, so the fleet
    size is the only thing that varies along the axis.
    """
    configs = [
        {
            "n_uavs": n,
            "max_time_s": max_time_s,
            "seed": seed,
        }
        for n in fleet_sizes
    ]
    campaign = run_campaign(
        FLEET_SCALE_CAMPAIGN, grid=configs, workers=workers, cache_dir=cache_dir
    )
    return result_from_campaign(campaign)
