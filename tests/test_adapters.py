"""Tests for the standard EDDI wiring factory."""

import numpy as np
import pytest

from repro.core.adapters import build_fleet_eddis, build_uav_eddi
from repro.core.decider import MissionDecider, MissionVerdict
from repro.core.uav_network import UavGuarantee
from repro.experiments.common import build_three_uav_world
from repro.safeml.distances import ALL_MEASURES
from repro.safeml.monitor import SafeMlMonitor
from repro.uav.faults import FaultSchedule, gps_spoof, motor_failure


def stepped_world(n_steps=20, seed=8):
    scenario = build_three_uav_world(seed=seed, n_persons=0)
    return scenario.world


class TestBuildUavEddi:
    def test_healthy_uav_full_capability(self):
        world = stepped_world()
        uav = world.uavs["uav1"]
        eddi, stack = build_uav_eddi(uav, world)
        for _ in range(10):
            world.step()
            guarantee = eddi.step(world.time)
        assert guarantee is UavGuarantee.CONTINUE_MISSION_EXTRA

    def test_neighbors_derived_from_geometry(self):
        world = stepped_world()
        uav = world.uavs["uav1"]
        eddi, stack = build_uav_eddi(uav, world, cl_range_m=50.0)
        # Bases are 150 m apart: no neighbor within 50 m.
        world.step()
        eddi.step(world.time)
        assert not stack.network._ev_neighbors.value
        # Move a peer close by.
        world.uavs["uav2"].dynamics.position = (35.0, -20.0, 0.0)
        world.step()
        eddi.step(world.time)
        assert stack.network._ev_neighbors.value

    def test_motor_failures_propagate_to_reliability(self):
        world = stepped_world()
        uav = world.uavs["uav1"]  # quadrotor: one motor out is fatal
        eddi, stack = build_uav_eddi(uav, world)
        schedule = FaultSchedule()
        schedule.add(motor_failure("uav1", at_time=2.0))
        guarantee = None
        while world.time < 5.0:
            world.step()
            schedule.step(world.time, world.uavs)
            guarantee = eddi.step(world.time)
        assert stack.safedrones.propulsion.motors_failed == 1
        assert guarantee in (
            UavGuarantee.RETURN_TO_BASE,
            UavGuarantee.EMERGENCY_LAND,
        )

    def test_spoof_flows_to_attack_evidence(self):
        world = stepped_world()
        uav = world.uavs["uav1"]
        uav.start_mission([(0.0, 300.0, 20.0)])
        eddi, stack = build_uav_eddi(uav, world)
        schedule = FaultSchedule()
        schedule.add(gps_spoof("uav1", at_time=8.0, offset_m=(40.0, 0.0, 0.0)))
        while world.time < 40.0:
            world.step()
            schedule.step(world.time, world.uavs)
            eddi.step(world.time)
            if stack.spoof_detector.spoof_detected:
                break
        assert stack.spoof_detector.spoof_detected
        # GPS navigation is revoked; the ladder falls to whichever fallback
        # the live geometry supports (no peer within CL range here).
        assert stack.network.navigation_guarantee() != "high_performance_navigation"
        assert stack.network.navigation_guarantee() in (
            "collaborative_navigation",
            "assistant_navigation",
            "vision_navigation",
        )

    @pytest.mark.parametrize("measure", sorted(ALL_MEASURES))
    def test_safeml_gate(self, measure):
        world = stepped_world()
        uav = world.uavs["uav1"]
        rng = np.random.default_rng(4)
        safeml = SafeMlMonitor(
            measure=measure, window_size=10, rng=np.random.default_rng(5)
        )
        safeml.fit(rng.normal(0.0, 1.0, size=(100, 3)))
        eddi, stack = build_uav_eddi(uav, world, safeml=safeml)
        # Feed badly shifted camera features.
        for _ in range(10):
            safeml.observe(rng.normal(8.0, 1.0, 3))
        world.step()
        eddi.step(world.time)
        assert not stack.network._ev_safeml_ok.value
        # The report is a pure function of the window: the gate read the
        # same report a second call returns.
        report = safeml.report(world.time)
        assert report.level.value == "low"
        assert report == safeml.report(world.time)

    def test_fleet_factory_with_decider(self):
        world = stepped_world()
        fleet = build_fleet_eddis(world)
        assert set(fleet) == {"uav1", "uav2", "uav3"}
        decider = MissionDecider()
        for eddi, stack in fleet.values():
            decider.add_uav(stack.network)
        for _ in range(5):
            world.step()
            for eddi, _ in fleet.values():
                eddi.step(world.time)
        assert decider.decide().verdict is MissionVerdict.AS_PLANNED
