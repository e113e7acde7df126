"""Fig. 4 — the SESAME multi-UAV platform demonstration.

"The multi-UAV platform coordinates these three UAVs as they run the SAR
algorithm, scanning the designated area ... and searching for people ...
the UAV status information ... is shown in blue boxes ... The output from
the selected SESAME algorithms ... is presented in the red box."

This driver runs the platform demonstration end-to-end and returns every
panel of the figure: the area map with three scan tracks and person
markers, the per-UAV status boxes, and the SESAME output panel (the
mission decider verdict plus per-UAV guarantees).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.decider import MissionDecider, MissionDecision
from repro.core.uav_network import UavConSertNetwork
from repro.experiments.common import build_three_uav_world
from repro.platform.database import DatabaseManager
from repro.platform.gui import render_fleet_status, render_mission_panel
from repro.platform.map_view import MapView
from repro.platform.recorder import FlightRecorder
from repro.platform.task_manager import TaskManager
from repro.platform.uav_manager import UavManager
from repro.sar.mission import MissionMetrics, SarMission
from repro.safedrones.monitor import SafeDronesMonitor


@dataclass(frozen=True)
class Fig4Result:
    """Every panel of the Fig. 4 demonstration."""

    map_panel: str
    status_panel: str
    sesame_panel: str
    metrics: MissionMetrics
    decision: MissionDecision

    def render(self) -> str:
        """The full figure as one text block."""
        return "\n\n".join(
            [
                self.map_panel,
                self.status_panel,
                self.sesame_panel,
                (
                    f"persons found: {self.metrics.persons_found}/"
                    f"{self.metrics.persons_total}  "
                    f"coverage: {100 * self.metrics.coverage_fraction:.0f}%  "
                    f"mission time: {self.metrics.duration_s or 0:.0f} s"
                ),
            ]
        )


def run_fig4_platform_demo(
    seed: int = 42,
    n_persons: int = 8,
    max_time_s: float = 1500.0,
) -> Fig4Result:
    """Run the three-UAV platform demonstration to completion."""
    scenario = build_three_uav_world(seed=seed, n_persons=n_persons)
    world = scenario.world

    manager = UavManager(bus=world.bus, database=DatabaseManager())
    recorder = FlightRecorder(bus=world.bus)
    decider = MissionDecider()
    monitors = {}
    networks = {}
    for uav in world.uavs.values():
        manager.connect(uav)
        recorder.watch(uav.spec.uav_id)
        network = UavConSertNetwork(uav_id=uav.spec.uav_id)
        network.set_reliability_level("high")
        decider.add_uav(network)
        networks[uav.spec.uav_id] = network
        monitors[uav.spec.uav_id] = SafeDronesMonitor(uav_id=uav.spec.uav_id)

    TaskManager(uav_manager=manager).execute(
        "sar_coverage", {"area_size_m": world.area_size_m, "altitude_m": 20.0}
    )
    mission = SarMission(world=world, altitude_m=20.0)
    mission.metrics.started_at = world.time
    while not mission.mission_complete and world.time < max_time_s:
        mission.step()
        for uav_id, uav in world.uavs.items():
            assessment = monitors[uav_id].update(
                world.time, uav.battery.soc, uav.battery.temp_c
            )
            networks[uav_id].set_reliability_level(assessment.level.value)

    decision = decider.decide()
    manager.close()
    recorder.close()
    view = MapView()
    return Fig4Result(
        map_panel=view.render(world, tracks=recorder.records and {
            uav_id: recorder.track(uav_id) for uav_id in recorder.records
        }),
        status_panel=render_fleet_status(manager.fleet_status()),
        sesame_panel=render_mission_panel(decision),
        metrics=mission.metrics,
        decision=decision,
    )
