"""Unit tests for the flight recorder."""

from repro.experiments.common import build_three_uav_world
from repro.platform.recorder import FlightRecorder


def record_short_flight():
    scenario = build_three_uav_world(seed=3, n_persons=0)
    world = scenario.world
    recorder = FlightRecorder(bus=world.bus)
    for uav_id in world.uavs:
        recorder.watch(uav_id)
    world.uavs["uav1"].start_mission([(80.0, 50.0, 20.0), (150.0, 50.0, 20.0)])
    for _ in range(200):
        world.step()
    return world, recorder


class TestFlightRecorder:
    def test_records_watched_uavs(self):
        world, recorder = record_short_flight()
        assert len(recorder.records["uav1"]) > 50
        # Idle UAVs still emit telemetry.
        assert len(recorder.records["uav2"]) > 50

    def test_track_matches_record_count(self):
        world, recorder = record_short_flight()
        assert len(recorder.track("uav1")) == len(recorder.records["uav1"])

    def test_records_follow_the_flight(self):
        world, recorder = record_short_flight()
        records = recorder.records["uav1"]
        stamps = [r.stamp for r in records]
        assert stamps == sorted(stamps) and len(set(stamps)) == len(stamps)
        assert "mission" in {r.mode for r in records}
        assert records[-1].battery_soc < records[0].battery_soc
        assert all(r.gps_valid for r in records)

