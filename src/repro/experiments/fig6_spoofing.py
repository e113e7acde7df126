"""Fig. 6 — area-mapping trajectory deviation under a spoofing attack.

"Falsified data are sent to manipulate the UAVs area mapping system.
Figure 6 shows how [the] spoofing attack can affect [the] area mapping
procedure by showing the deviation of the trajectory of a UAV under
attack (red color) [versus] the correct trajectory of a UAV with no
spoofing attack (blue). When SESAME technologies were used, [the]
spoofing attack was detected immediately by the SecurityEDDI."

The attack has two faces, both reproduced:

* **physical** — a ramping GPS spoof offset pulls the vehicle's believed
  position, so the waypoint controller physically drags it off its
  mapping track (the red trajectory);
* **network** — forged ROS messages are injected under the victim's
  identity, which the transport-level IDS flags and the Security EDDI
  traces to the attack-tree root (detection).

An IMU cross-check spoofing detector provides the second, sensor-level
detection channel. The driver simulates only the mapping UAV, whose
trajectory is reported: the paper's other two fly disjoint strips that
share no noise stream, bus consumer or airspace with it, and
``tests/test_paper_driver_fleet.py`` proves their absence changes no bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.experiments.common import build_three_uav_world
from repro.middleware.attacks import SpoofingAttack
from repro.sar.coverage import boustrophedon_path
from repro.security.attack_trees import ros_spoofing_attack_tree
from repro.security.broker import MqttBroker
from repro.security.eddi import SecurityEddi
from repro.security.ids import IntrusionDetectionSystem
from repro.security.spoofing import GpsSpoofingDetector
from repro.uav.uav import FlightMode

ATTACK_START_S = 60.0
SPOOF_RAMP_MPS = 0.8
SPOOF_MAX_OFFSET_M = 60.0
MAPPING_STRIP = ((0.0, 120.0), (0.0, 250.0))
MAPPING_ALTITUDE_M = 25.0


@dataclass(frozen=True)
class Fig6Result:
    """Trajectories and detection milestones."""

    times: list[float]
    clean_trajectory: list[tuple[float, float, float]]
    attacked_trajectory: list[tuple[float, float, float]]
    deviation_m: list[float]
    max_deviation_m: float
    attack_start_s: float
    eddi_detection_s: float | None
    sensor_detection_s: float | None
    ids_alert_count: int
    attack_path: list[str]

    @property
    def eddi_latency_s(self) -> float | None:
        """Seconds from attack start to the Security EDDI critical event."""
        if self.eddi_detection_s is None:
            return None
        return self.eddi_detection_s - self.attack_start_s

    @property
    def sensor_latency_s(self) -> float | None:
        """Seconds from attack start to the IMU cross-check verdict."""
        if self.sensor_detection_s is None:
            return None
        return self.sensor_detection_s - self.attack_start_s


def _fly_mapping(
    seed: int, attack: bool, duration_s: float = 240.0
) -> tuple[list[float], list[tuple[float, float, float]], dict]:
    """One mapping flight; returns times, true trajectory, and extras."""
    world = build_three_uav_world(seed=seed, n_persons=0, n_uavs=1).world
    uav = world.uavs["uav1"]
    uav.start_mission(boustrophedon_path(MAPPING_STRIP, MAPPING_ALTITUDE_M))

    extras: dict = {
        "eddi_detection_s": None,
        "sensor_detection_s": None,
        "ids_alert_count": 0,
        "attack_path": [],
    }
    broker = MqttBroker()
    ids = IntrusionDetectionSystem(bus=world.bus, broker=broker)
    for node in (*world.uavs, "uav_manager", "gcs"):
        ids.register_node(node)
    eddi = SecurityEddi(tree=ros_spoofing_attack_tree(), broker=broker)
    detector = GpsSpoofingDetector()

    if attack:
        world.add_attacker(
            SpoofingAttack(
                bus=world.bus,
                t_start=ATTACK_START_S,
                name="adversary",
                topic="/uav1/pose",
                spoofed_sender="uav1",
                payload_fn=lambda now: {"forged_pose": True, "t": now},
                rate_hz=5.0,
            )
        )

    times: list[float] = []
    trajectory: list[tuple[float, float, float]] = []
    while world.time < duration_s:
        world.step()
        now = world.time
        if attack and now >= ATTACK_START_S:
            # Physical GPS spoof: eastward pull ramping to the max offset.
            offset = min(SPOOF_MAX_OFFSET_M, SPOOF_RAMP_MPS * (now - ATTACK_START_S))
            uav.sensors.gps.spoof_offset_m = (offset, 0.0, 0.0)

        fix = uav.sensors.gps.measure(uav.dynamics.position, now)
        if fix.valid:
            verdict = detector.update(
                now,
                world.frame.to_enu(fix.point),
                uav.sensors.imu.measure(uav.dynamics.ground_velocity),
                world.dt,
            )
            if verdict.spoofed and extras["sensor_detection_s"] is None:
                extras["sensor_detection_s"] = now

        ids.scan(now)
        if eddi.events and extras["eddi_detection_s"] is None:
            extras["eddi_detection_s"] = eddi.events[0].stamp
            extras["attack_path"] = eddi.events[0].attack_path

        times.append(now)
        trajectory.append(uav.dynamics.position)
        if uav.mode is FlightMode.LANDED:
            break

    extras["ids_alert_count"] = len(ids.alerts)
    eddi.close()
    return times, trajectory, extras


def run_fig6_spoofing_experiment(
    seed: int = 9, duration_s: float = 240.0
) -> Fig6Result:
    """Fly the mapping mission clean and attacked; compare trajectories."""
    times_clean, clean, _ = _fly_mapping(seed, attack=False, duration_s=duration_s)
    times_atk, attacked, extras = _fly_mapping(seed, attack=True, duration_s=duration_s)

    n = min(len(clean), len(attacked))
    deviation = [math.dist(clean[i], attacked[i]) for i in range(n)]
    return Fig6Result(
        times=times_atk[:n],
        clean_trajectory=clean[:n],
        attacked_trajectory=attacked[:n],
        deviation_m=deviation,
        max_deviation_m=max(deviation) if deviation else 0.0,
        attack_start_s=ATTACK_START_S,
        eddi_detection_s=extras["eddi_detection_s"],
        sensor_detection_s=extras["sensor_detection_s"],
        ids_alert_count=extras["ids_alert_count"],
        attack_path=extras["attack_path"],
    )
