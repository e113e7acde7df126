"""Fig. 7 — collaborative localization guiding a GPS-denied safe landing.

"The spoofed UAV ... and the assisting UAV ... collaborate to coordinate
the safe landing, in a high precision location, of the UAV under attack
for further investigation. It is important to note here that the spoofed
UAV is operating without any GPS signal."

Pipeline: the spoof is detected (Fig. 6), the ConSert layer revokes GPS
localization and triggers Collaborative Localization; assisting UAVs keep
the affected UAV in camera view, each sighting yields a bearing/elevation
plus monocular range, the fused estimate feeds the affected UAV's
external navigation, and the guided landing controller descends it onto
the designated landing point. A no-CL baseline (dead-reckoning descent)
quantifies what the mitigation buys.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.experiments.common import build_three_uav_world
from repro.localization.collaborative import CollaborativeLocalizer, Sighting
from repro.localization.detection import DroneDetector
from repro.localization.landing import GuidedLandingController, LandingReport
from repro.uav.uav import FlightMode

AFFECTED_START = (60.0, 80.0, 25.0)
LANDING_POINT = (50.0, 70.0)
ASSIST_OFFSETS = {"uav2": (18.0, 0.0, 5.0), "uav3": (0.0, 18.0, 5.0)}


@dataclass(frozen=True)
class Fig7Result:
    """Landing outcomes with and without collaborative localization."""

    cl_report: LandingReport
    baseline_error_m: float
    spoofed_trajectory: list[tuple[float, float, float]]
    assist_trajectory: list[tuple[float, float, float]]
    n_sightings: int
    mean_estimate_error_m: float


def _setup(seed: int, n_assistants: int):
    scenario = build_three_uav_world(seed=seed, n_persons=0)
    world = scenario.world
    affected = world.uavs["uav1"]
    affected.dynamics.position = AFFECTED_START
    # The attack outcome: no GPS at all (paper's stated condition).
    affected.sensors.gps.denied = True
    assistants = [world.uavs[u] for u in list(ASSIST_OFFSETS)[:n_assistants]]
    for assistant in assistants:
        offset = ASSIST_OFFSETS[assistant.spec.uav_id]
        assistant.dynamics.position = tuple(
            a + o for a, o in zip(AFFECTED_START, offset)
        )
    return world, affected, assistants


def run_fig7_collaborative_landing(
    seed: int = 13,
    n_assistants: int = 2,
    max_time_s: float = 300.0,
) -> Fig7Result:
    """Run the guided landing with CL, then the dead-reckoning baseline."""
    # ------------------------------------------------- with CL ------------
    world, affected, assistants = _setup(seed, n_assistants)
    detector = DroneDetector(rng=np.random.default_rng(seed + 100))
    localizer = CollaborativeLocalizer(target_id="uav1", max_age_s=1.0)
    controller = GuidedLandingController(uav=affected, landing_point=LANDING_POINT)
    controller.engage(world.time)

    spoofed_traj: list[tuple[float, float, float]] = []
    assist_traj: list[tuple[float, float, float]] = []
    estimate_errors: list[float] = []
    n_sightings = 0

    while world.time < max_time_s and not controller.complete:
        # Assistants shadow the affected UAV to keep it in view.
        for assistant in assistants:
            offset = ASSIST_OFFSETS[assistant.spec.uav_id]
            target = tuple(
                p + o for p, o in zip(affected.dynamics.position, offset)
            )
            assistant.command_guided_setpoint(target)
        world.step()
        now = world.time
        for assistant in assistants:
            detection = detector.observe(
                observer_id=assistant.spec.uav_id,
                target_id="uav1",
                observer_enu=assistant.dynamics.position,
                target_enu=affected.dynamics.position,
                now=now,
                camera_health=assistant.sensors.camera.health,
            )
            if detection is not None:
                n_sightings += 1
                localizer.add_sighting(
                    Sighting(
                        detection=detection,
                        observer_enu=assistant.dynamics.position,
                    )
                )
        estimate = localizer.estimate(now)
        if estimate is not None:
            controller.feed_estimate(estimate)
            estimate_errors.append(
                math.dist(estimate.enu, affected.dynamics.position)
            )
        controller.step(now)
        spoofed_traj.append(affected.dynamics.position)
        assist_traj.append(assistants[0].dynamics.position)

    cl_report = controller.report(world.time)

    # ------------------------------------------- baseline (no CL) --------
    world_b, affected_b, _ = _setup(seed, n_assistants=0)
    # Dead-reckoning descent: the UAV believes its last (pre-denial) fix
    # and simply descends; nobody corrects its drift.
    affected_b.believed_trajectory.append(AFFECTED_START)
    affected_b.command_mode(FlightMode.EMERGENCY_LAND)
    while world_b.time < max_time_s and affected_b.mode is not FlightMode.LANDED:
        world_b.step()
    baseline_error = math.hypot(
        affected_b.dynamics.position[0] - LANDING_POINT[0],
        affected_b.dynamics.position[1] - LANDING_POINT[1],
    )

    return Fig7Result(
        cl_report=cl_report,
        baseline_error_m=baseline_error,
        spoofed_trajectory=spoofed_traj,
        assist_trajectory=assist_traj,
        n_sightings=n_sightings,
        mean_estimate_error_m=(
            sum(estimate_errors) / len(estimate_errors)
            if estimate_errors
            else float("nan")
        ),
    )
