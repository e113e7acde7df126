"""Unit tests for the UAV simulator substrate: battery, dynamics, sensors,
agent, and world."""

import math

import numpy as np
import pytest

from repro.geo import EnuFrame, GeoPoint
from repro.middleware.rosbus import RosBus
from repro.uav.battery import Battery, BatteryFault
from repro.uav.dynamics import UavDynamics, WaypointPlan
from repro.uav.sensors import GpsSensor, SensorSuite
from repro.uav.uav import FlightMode, Telemetry, Uav, UavSpec
from repro.uav.world import World


FRAME = EnuFrame(origin=GeoPoint(35.0, 33.0, 0.0))


class TestBattery:
    def test_soc_depletes_with_load(self):
        battery = Battery()
        battery.step(dt=3600.0, now=3600.0, draw_w=battery.spec.capacity_wh)
        assert battery.soc == pytest.approx(0.0, abs=1e-9)

    def test_soc_never_negative(self):
        battery = Battery(soc=0.01)
        battery.step(dt=3600.0, now=1.0, draw_w=10_000.0)
        assert battery.soc == 0.0

    def test_temperature_relaxes_toward_target(self):
        battery = Battery(temp_c=25.0)
        for i in range(1000):
            battery.step(dt=1.0, now=float(i), draw_w=battery.spec.hover_draw_w,
                         ambient_c=25.0)
        assert battery.temp_c == pytest.approx(37.0, abs=1.0)  # 25 + 12 rise

    def test_fault_triggers_at_scheduled_time(self):
        battery = Battery(soc=0.8)
        battery.inject_fault(BatteryFault(at_time=10.0, soc_drop_to=0.4))
        battery.step(dt=1.0, now=9.0, draw_w=0.0)
        assert not battery.faulted
        battery.step(dt=1.0, now=10.0, draw_w=0.0)
        assert battery.faulted
        assert battery.soc == pytest.approx(0.4, abs=0.01)

    def test_fault_does_not_raise_soc(self):
        battery = Battery(soc=0.2)
        battery.inject_fault(BatteryFault(at_time=0.0, soc_drop_to=0.4))
        battery.step(dt=1.0, now=1.0, draw_w=0.0)
        assert battery.soc <= 0.2

    def test_fault_sustains_heat(self):
        battery = Battery(soc=0.8)
        battery.inject_fault(BatteryFault(at_time=0.0))
        for i in range(1, 2000):
            battery.step(dt=1.0, now=float(i), draw_w=60.0, ambient_c=25.0)
        assert battery.temp_c > 60.0


class TestWaypointPlan:
    def test_advances_on_capture(self):
        plan = WaypointPlan(waypoints=[(0, 0, 10), (50, 0, 10)], capture_radius_m=2.0)
        assert plan.active == (0, 0, 10)
        assert plan.advance_if_captured((0.5, 0.5, 10.0))
        assert plan.active == (50, 0, 10)

    def test_no_advance_outside_radius(self):
        plan = WaypointPlan(waypoints=[(0, 0, 10)], capture_radius_m=2.0)
        assert not plan.advance_if_captured((10.0, 0.0, 10.0))

    def test_complete_after_last(self):
        plan = WaypointPlan(waypoints=[(0, 0, 10)])
        plan.advance_if_captured((0, 0, 10))
        assert plan.complete
        assert plan.active is None

    def test_replace_restarts(self):
        plan = WaypointPlan(waypoints=[(0, 0, 10)])
        plan.advance_if_captured((0, 0, 10))
        plan.replace([(5, 5, 10)])
        assert not plan.complete
        assert plan.index == 0


class TestDynamics:
    def test_flies_toward_target(self):
        dyn = UavDynamics()
        for _ in range(100):
            dyn.step_toward((100.0, 0.0, 20.0), dt=0.5)
        assert dyn.position[0] > 50.0

    def test_respects_speed_limit(self):
        dyn = UavDynamics(max_speed_mps=5.0)
        for _ in range(100):
            dyn.step_toward((1000.0, 0.0, 0.0), dt=0.5)
            assert dyn.speed_mps <= 5.0 + 1e-6

    def test_settles_at_target(self):
        dyn = UavDynamics()
        for _ in range(400):
            dyn.step_toward((30.0, 40.0, 10.0), dt=0.5)
        assert math.dist(dyn.position, (30.0, 40.0, 10.0)) < 1.0

    def test_hover_on_none(self):
        dyn = UavDynamics(velocity=(5.0, 0.0, 0.0))
        for _ in range(50):
            dyn.step_toward(None, dt=0.5)
        assert dyn.speed_mps < 0.1

    def test_climb_rate_limited(self):
        dyn = UavDynamics(max_climb_mps=2.0)
        for _ in range(100):
            dyn.step_toward((0.0, 0.0, 500.0), dt=0.5)
            assert abs(dyn.velocity[2]) <= 2.0 + 1e-6


class TestSensors:
    def test_gps_noise_bounded(self):
        gps = GpsSensor(frame=FRAME, rng=np.random.default_rng(0), noise_std_m=0.3)
        fixes = [gps.measure((100.0, 50.0, 20.0), now=0.0) for _ in range(100)]
        errors = [
            math.dist(FRAME.to_enu(f.point), (100.0, 50.0, 20.0)) for f in fixes
        ]
        assert np.mean(errors) < 1.5
        assert all(f.quality_ok for f in fixes)

    def test_gps_denial(self):
        gps = GpsSensor(frame=FRAME, rng=np.random.default_rng(0), denied=True)
        fix = gps.measure((0.0, 0.0, 0.0), now=0.0)
        assert not fix.valid
        assert fix.num_satellites == 0
        assert not fix.quality_ok

    def test_gps_spoof_offset_applied(self):
        gps = GpsSensor(
            frame=FRAME,
            rng=np.random.default_rng(0),
            spoof_offset_m=(50.0, 0.0, 0.0),
            noise_std_m=0.01,
        )
        fix = gps.measure((0.0, 0.0, 10.0), now=0.0)
        east, north, _ = FRAME.to_enu(fix.point)
        assert east == pytest.approx(50.0, abs=0.5)

    def test_spoofed_fix_still_looks_plausible(self):
        gps = GpsSensor(
            frame=FRAME, rng=np.random.default_rng(0), spoof_offset_m=(50.0, 0.0, 0.0)
        )
        fix = gps.measure((0.0, 0.0, 0.0), now=0.0)
        assert fix.valid
        assert fix.num_satellites >= 6

    def test_suite_construction(self):
        suite = SensorSuite.create(FRAME, np.random.default_rng(0))
        assert suite.camera.operational
        assert suite.wind.measure(3.0) >= 0.0


def make_uav(uav_id="u1", base=(0.0, 0.0, 0.0)):
    bus = RosBus()
    return Uav(
        spec=UavSpec(uav_id=uav_id, base_position=base),
        frame=FRAME,
        bus=bus,
        rng=np.random.default_rng(1),
    )


class TestUavAgent:
    def test_mission_flies_waypoints_and_returns(self):
        uav = make_uav()
        uav.start_mission([(30.0, 0.0, 15.0), (30.0, 30.0, 15.0)])
        for i in range(1, 600):
            uav.step(0.5, i * 0.5)
            if uav.mode is FlightMode.LANDED:
                break
        assert uav.plan.complete
        assert uav.mode is FlightMode.LANDED
        assert math.dist(uav.dynamics.position[:2], (0.0, 0.0)) < 3.0

    def test_hold_mode_hovers(self):
        uav = make_uav()
        uav.start_mission([(100.0, 0.0, 20.0)])
        for i in range(1, 20):
            uav.step(0.5, i * 0.5)
        uav.command_mode(FlightMode.HOLD)
        for i in range(20, 40):  # bleed off momentum first
            uav.step(0.5, i * 0.5)
        position = uav.dynamics.position
        for i in range(40, 80):
            uav.step(0.5, i * 0.5)
        assert math.dist(uav.dynamics.position, position) < 1.0

    def test_emergency_land_descends_in_place(self):
        uav = make_uav()
        uav.dynamics.position = (50.0, 50.0, 25.0)
        uav.command_mode(FlightMode.EMERGENCY_LAND)
        for i in range(1, 200):
            uav.step(0.5, i * 0.5)
            if uav.mode is FlightMode.LANDED:
                break
        assert uav.mode is FlightMode.LANDED
        assert math.dist(uav.dynamics.position[:2], (50.0, 50.0)) < 2.0

    def test_spoofed_gps_drags_vehicle_off_course(self):
        clean = make_uav()
        spoofed = make_uav()
        spoofed.sensors.gps.spoof_offset_m = (20.0, 0.0, 0.0)
        for uav in (clean, spoofed):
            uav.start_mission([(0.0, 100.0, 15.0)])
            for i in range(1, 200):
                uav.step(0.5, i * 0.5)
        # The spoofed vehicle is physically displaced westward by ~offset.
        assert spoofed.dynamics.position[0] < clean.dynamics.position[0] - 10.0

    def test_telemetry_published_on_bus(self):
        uav = make_uav()
        got = []
        uav.bus.subscribe("/u1/telemetry", "test", lambda m: got.append(m.data))
        uav.start_mission([(10.0, 0.0, 10.0)])
        for i in range(1, 30):
            uav.bus.advance_clock(i * 0.5)
            uav.step(0.5, i * 0.5)
        assert got
        assert isinstance(got[0], Telemetry)
        assert got[0].uav_id == "u1"
        assert 0.0 <= got[0].battery_soc <= 1.0

    def test_ground_clamp(self):
        uav = make_uav()
        uav.dynamics.position = (0.0, 0.0, 1.0)
        uav.command_mode(FlightMode.EMERGENCY_LAND)
        for i in range(1, 50):
            uav.step(0.5, i * 0.5)
            assert uav.dynamics.position[2] >= 0.0


class TestWorld:
    def test_step_advances_time_and_bus_clock(self):
        world = World()
        world.step()
        assert world.time == pytest.approx(world.dt)
        assert world.bus.clock == world.time

    def test_scatter_persons_inside_area(self):
        world = World(area_size_m=(100.0, 50.0))
        persons = world.scatter_persons(20)
        assert len(persons) == 20
        for person in persons:
            assert 0.0 <= person.position[0] <= 100.0
            assert 0.0 <= person.position[1] <= 50.0

    def test_step_advances_by_dt(self):
        world = World(dt=1.0)
        ticks = [world.step() for _ in range(5)]
        assert ticks == [1.0, 2.0, 3.0, 4.0, 5.0]
