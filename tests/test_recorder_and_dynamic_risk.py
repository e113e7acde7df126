"""Unit tests for the flight recorder."""

import pytest

from repro.experiments.common import build_three_uav_world
from repro.middleware.rosbus import RosBus
from repro.platform.recorder import FlightRecorder, TelemetryRecord


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

    def test_kpis_flight_time_and_distance(self):
        world, recorder = record_short_flight()
        kpis = recorder.kpis("uav1")
        assert kpis.flight_time_s > 60.0
        # Flew at least out to the second waypoint and back toward base.
        assert kpis.distance_m > 150.0
        assert kpis.energy_used_fraction > 0.0
        assert 0.0 <= kpis.min_battery_soc <= 1.0

    def test_mode_occupancy_covers_mission(self):
        world, recorder = record_short_flight()
        kpis = recorder.kpis("uav1")
        assert "mission" in kpis.mode_occupancy_s
        assert kpis.mode_occupancy_s["mission"] > 10.0

    def test_kpis_require_data(self):
        recorder = FlightRecorder(bus=RosBus())
        with pytest.raises(ValueError):
            recorder.kpis("ghost")

    def test_track_matches_record_count(self):
        world, recorder = record_short_flight()
        assert len(recorder.track("uav1")) == len(recorder.records["uav1"])

    def test_jsonl_roundtrip(self):
        world, recorder = record_short_flight()
        text = recorder.export_jsonl("uav1")
        rebuilt = FlightRecorder.import_jsonl(RosBus(), "uav1", text)
        assert rebuilt.records["uav1"] == recorder.records["uav1"]
        assert rebuilt.kpis("uav1") == recorder.kpis("uav1")

    def test_record_json_roundtrip(self):
        record = TelemetryRecord(
            uav_id="u", stamp=1.5, mode="mission", east=1.0, north=2.0, up=3.0,
            battery_soc=0.8, battery_temp_c=30.0, gps_valid=True,
        )
        assert TelemetryRecord.from_json(record.to_json()) == record
