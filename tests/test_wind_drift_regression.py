"""Regression tests for wind-drift sensing and the guarantee timeline.

Pins down a subtle integration bug: unrejected wind drift physically
displaces the vehicle outside its commanded kinematics; if inertial
sensing does not report that drift, the spoofing detector's dead
reckoning diverges from GPS truth and false-alarms in any windy mission
(observed as spurious emergency landings before the fix).
"""

import numpy as np
import pytest

from repro.core.adapters import build_fleet_eddis
from repro.core.uav_network import UavGuarantee
from repro.experiments.common import build_three_uav_world
from repro.security.spoofing import GpsSpoofingDetector
from repro.uav.environment import Environment, GustProcess


def windy_world(seed=11, wind_mps=6.0):
    scenario = build_three_uav_world(seed=seed, n_persons=0)
    world = scenario.world
    world.environment = Environment(
        rng=np.random.default_rng(seed + 50),
        wind_direction_deg=250.0,
        gusts=GustProcess(rng=np.random.default_rng(seed + 51), mean_mps=wind_mps),
    )
    return world


class TestWindDriftSensing:
    def test_ground_velocity_includes_drift(self):
        world = windy_world()
        uav = world.uavs["uav1"]
        uav.start_mission([(200.0, 250.0, 20.0)])
        for _ in range(40):
            world.step()
        drift = uav.dynamics.drift_velocity
        assert drift != (0.0, 0.0, 0.0)
        ground = uav.dynamics.ground_velocity
        assert ground == pytest.approx(
            tuple(v + d for v, d in zip(uav.dynamics.velocity, drift))
        )

    def test_drift_cleared_on_ground(self):
        world = windy_world()
        uav = world.uavs["uav1"]  # stays landed (IDLE)
        for _ in range(20):
            world.step()
        assert uav.dynamics.drift_velocity == (0.0, 0.0, 0.0)

    def test_no_spoof_false_positive_in_wind(self):
        """The regression: a windy clean mission must not trip the detector."""
        world = windy_world(wind_mps=8.0)
        uav = world.uavs["uav1"]
        uav.start_mission(
            [(100.0, 250.0, 20.0), (150.0, 20.0, 20.0), (200.0, 250.0, 20.0)]
        )
        detector = GpsSpoofingDetector()
        while world.time < 120.0:
            world.step()
            fix = uav.sensors.gps.measure(uav.dynamics.position, world.time)
            if fix.valid:
                detector.update(
                    world.time,
                    world.frame.to_enu(fix.point),
                    uav.sensors.imu.measure(uav.dynamics.ground_velocity),
                    world.dt,
                )
        assert not detector.spoof_detected

    def test_windy_mission_keeps_full_guarantees(self):
        world = windy_world(wind_mps=6.0)
        fleet = build_fleet_eddis(world, cl_range_m=300.0)
        for uav in world.uavs.values():
            uav.start_mission([(150.0, 250.0, 20.0)])
        last = {}
        while world.time < 60.0:
            world.step()
            for uav_id, (eddi, _) in fleet.items():
                last[uav_id] = eddi.step(world.time)
        assert all(
            guarantee is UavGuarantee.CONTINUE_MISSION_EXTRA
            for guarantee in last.values()
        )


class TestGuaranteeTimeline:
    def test_response_log_starts_at_full_guarantee(self):
        world = windy_world()
        fleet = build_fleet_eddis(world)
        eddi, stack = fleet["uav1"]
        for _ in range(10):
            world.step()
            eddi.step(world.time)
        stack.network.set_reliability_level("low")
        world.step()
        # Manually push evidence (the adapter would overwrite it); instead
        # evaluate once via the network directly through the eddi step with
        # a degraded battery.
        world.uavs["uav1"].battery.soc = 0.05
        world.uavs["uav1"].battery.temp_c = 95.0
        for _ in range(5):
            world.step()
            eddi.step(world.time)
        first = eddi.response_log[0]
        assert first.previous is None
        assert first.guarantee is UavGuarantee.CONTINUE_MISSION_EXTRA
        assert eddi.guarantee_trace[-1][0] == world.time
