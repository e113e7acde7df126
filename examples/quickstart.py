"""Quickstart: a three-UAV SAR mission through the public API.

Builds the simulated world, connects the fleet to the multi-UAV control
platform, launches the built-in SAR coverage service, and prints the
mission metrics plus the platform status panels — the minimal end-to-end
tour of the library.

Run:  python examples/quickstart.py
"""

from repro.experiments.common import build_three_uav_world
from repro.platform.database import DatabaseManager
from repro.platform.gui import render_fleet_status
from repro.platform.task_manager import TaskManager
from repro.platform.uav_manager import UavManager
from repro.sar.mission import SarMission


def main() -> None:
    # 1. A world with three UAVs and eight persons awaiting rescue.
    scenario = build_three_uav_world(seed=42, n_persons=8)
    world = scenario.world

    # 2. Wire the control platform: database, UAV manager, task manager.
    database = DatabaseManager()
    uav_manager = UavManager(bus=world.bus, database=database)
    for uav in world.uavs.values():
        uav_manager.connect(uav)
    task_manager = TaskManager(uav_manager=uav_manager)
    print("Available platform services:", sorted(task_manager.services))

    # 3. Launch the SAR coverage task at 20 m survey altitude.
    assignment = task_manager.execute(
        "sar_coverage", {"area_size_m": world.area_size_m, "altitude_m": 20.0}
    )
    for uav_id, info in sorted(assignment["assignments"].items()):
        print(f"  {uav_id}: strip {info['bounds'][0]}, {info['waypoints']} waypoints")

    # 4. Step the mission to completion.
    mission = SarMission(world=world, altitude_m=20.0)
    mission.metrics.started_at = world.time
    while not mission.mission_complete and world.time < 1500.0:
        mission.step()

    # 5. Report.
    metrics = mission.metrics
    print()
    print(render_fleet_status(uav_manager.fleet_status()))
    print()
    print(f"mission time:        {metrics.completed_at:.0f} s")
    print(f"persons found:       {metrics.persons_found}/{metrics.persons_total}")
    print(f"area coverage:       {100 * metrics.coverage_fraction:.0f}%")
    print(f"detection accuracy:  {100 * metrics.detection_accuracy:.1f}%")


if __name__ == "__main__":
    main()
