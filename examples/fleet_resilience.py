"""Fleet resilience: battery failure, redistribution, post-flight KPIs.

The full mission-level story of the paper's Fig. 1: a three-UAV coverage
mission in wind; one UAV's battery degrades; SafeDrones demotes its
reliability; the mission decider rules "task redistribution needed"; the
task redistributor hands the dropped UAV's remaining coverage to the
peers with spare capacity; the mission completes. Along the way, the
flight recorder captures KPIs.

Run:  python examples/fleet_resilience.py
"""

import numpy as np

from repro.core.decider import MissionDecider, MissionVerdict
from repro.core.uav_network import UavConSertNetwork
from repro.experiments.common import build_three_uav_world
from repro.platform.database import DatabaseManager
from repro.platform.gui import render_mission_panel
from repro.platform.recorder import FlightRecorder
from repro.platform.uav_manager import UavManager
from repro.safedrones.monitor import SafeDronesMonitor
from repro.sar.mission import SarMission
from repro.sar.redistribution import TaskRedistributor
from repro.uav.battery import BatteryFault
from repro.uav.environment import Environment
from repro.uav.uav import FlightMode


def main() -> None:
    scenario = build_three_uav_world(seed=21, n_persons=6)
    world = scenario.world
    world.environment = Environment(
        rng=np.random.default_rng(99), wind_direction_deg=250.0
    )

    # Platform services.
    manager = UavManager(bus=world.bus, database=DatabaseManager())
    recorder = FlightRecorder(bus=world.bus)
    for uav in world.uavs.values():
        manager.connect(uav)
        recorder.watch(uav.spec.uav_id)

    # Assurance layer: ConSert networks + monitors per UAV.
    decider = MissionDecider()
    networks, monitors = {}, {}
    for uav_id in world.uavs:
        network = UavConSertNetwork(uav_id=uav_id)
        network.set_reliability_level("high")
        decider.add_uav(network)
        networks[uav_id] = network
        monitors[uav_id] = SafeDronesMonitor(uav_id=uav_id)

    # The mission, with a battery fault scheduled on uav1.
    mission = SarMission(world=world, altitude_m=20.0)
    mission.assign_paths()
    world.uavs["uav1"].battery.inject_fault(
        BatteryFault(at_time=60.0, soc_drop_to=0.20)
    )
    print("mission launched; battery fault scheduled on uav1 at t=60 s\n")

    redistributed = False
    while not mission.mission_complete and world.time < 2500.0:
        mission.step()
        now = world.time
        for uav_id, uav in world.uavs.items():
            assessment = monitors[uav_id].update(
                now, uav.battery.soc, uav.battery.temp_c
            )
            networks[uav_id].set_reliability_level(assessment.level.value)
        if int(now * 2) % 20 == 0:  # decide every ~10 s
            decision = decider.decide()
            if decision.verdict is MissionVerdict.REDISTRIBUTE and not redistributed:
                redistributed = True
                dropped_id = decision.dropped_uavs[0]
                dropped = world.uavs[dropped_id]
                takeover = [world.uavs[u] for u in decision.takeover_uavs]
                print(f"t={now:.0f}s  decider: {decision.verdict.value}")
                print(render_mission_panel(decision))
                dropped.command_mode(FlightMode.RETURN_TO_BASE)
                assignments = TaskRedistributor().execute(dropped, takeover)
                for assignment in assignments:
                    print(
                        f"  {assignment.from_uav} -> {assignment.to_uav}: "
                        f"{len(assignment.waypoints)} waypoints "
                        f"(+{assignment.added_path_length_m:.0f} m)"
                    )
                print()

    print(f"mission complete at t={world.time:.0f}s")
    print(f"persons found: {mission.metrics.persons_found}/{mission.metrics.persons_total}")
    print(f"coverage: {100 * mission.metrics.coverage_fraction:.0f}%\n")

    print("post-flight KPIs:")
    for uav_id in sorted(world.uavs):
        kpis = recorder.kpis(uav_id)
        print(
            f"  {uav_id}: {kpis.flight_time_s:.0f} s, {kpis.distance_m:.0f} m, "
            f"energy {100 * kpis.energy_used_fraction:.0f}%, "
            f"min SoC {100 * kpis.min_battery_soc:.0f}%"
        )


if __name__ == "__main__":
    main()
