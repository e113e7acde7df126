"""Scenario-driven experiment: declarative config + standard EDDI wiring.

Shows the adoption-path API: describe the whole experiment (fleet,
environment, faults, attack) as one JSON document, load it with
``load_scenario``, attach the full Fig. 1 assurance stack to every UAV
with one ``build_fleet_eddis`` call, and read each UAV's guarantee
transitions afterwards.

Run:  python examples/scenario_driven.py
"""

import json

from repro.core.adapters import build_fleet_eddis
from repro.core.decider import MissionDecider
from repro.platform.gui import render_mission_panel
from repro.sar.coverage import boustrophedon_path, partition_area
from repro.scenario import load_scenario

SCENARIO = """
{
  "seed": 11,
  "area_size_m": [360, 240],
  "persons": 5,
  "environment": {"wind_mean_mps": 4.0, "wind_direction_deg": 250,
                  "ambient_c": 28, "visibility": "good"},
  "uavs": [
    {"id": "uav1", "base": [30, -20, 0], "rotors": 4},
    {"id": "uav2", "base": [180, -20, 0], "rotors": 6},
    {"id": "uav3", "base": [330, -20, 0], "rotors": 4}
  ],
  "faults": [
    {"type": "gps_denial", "uav": "uav2", "at": 60, "duration": 40},
    {"type": "battery_collapse", "uav": "uav1", "at": 90, "soc_drop_to": 0.25},
    {"type": "camera_degradation", "uav": "uav3", "at": 50, "rate": 0.01}
  ],
  "attacks": [
    {"type": "ros_spoofing", "topic": "/uav3/pose", "sender": "uav3",
     "start": 120, "stop": 160, "rate_hz": 4}
  ]
}
"""


def main() -> None:
    scenario = load_scenario(json.loads(SCENARIO))
    world = scenario.world
    print(
        f"scenario loaded: {len(world.uavs)} UAVs, "
        f"{len(world.persons)} persons, {len(scenario.faults.faults)} faults, "
        f"{len(world.attackers)} attack(s)\n"
    )

    # One call wires the whole Fig. 1 monitor stack per UAV.
    fleet = build_fleet_eddis(world, cl_range_m=200.0)
    decider = MissionDecider()
    for eddi, stack in fleet.values():
        decider.add_uav(stack.network)

    # Launch the coverage mission.
    strips = partition_area(world.area_size_m, len(world.uavs))
    for (uav_id, uav), bounds in zip(sorted(world.uavs.items()), strips):
        uav.start_mission(boustrophedon_path(bounds, 20.0))

    while world.time < 240.0:
        scenario.step()
        for eddi, _ in fleet.values():
            eddi.step(world.time)

    print("fault campaign log:")
    for stamp, name, state in scenario.faults.log:
        print(f"  t={stamp:6.1f}s  {name} {state}")
    print()

    print("guarantee timeline:")
    for uav_id in sorted(fleet):
        eddi, _ = fleet[uav_id]
        for response in eddi.response_log:
            print(f"  t={response.stamp:6.1f}s  {uav_id} -> {response.guarantee.value}")
    print()

    print(render_mission_panel(decider.decide()))


if __name__ == "__main__":
    main()
