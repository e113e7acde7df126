"""Tests for the declarative scenario loader and the SINADRA altitude bands."""

import json

import pytest

from repro.scenario import Scenario, ScenarioError, load_scenario
from repro.sinadra.situation import altitude_band


BASIC = {
    "seed": 7,
    "area_size_m": [300, 200],
    "persons": 4,
    "uavs": [
        {"id": "uav1", "base": [10, -10, 0], "rotors": 4},
        {"id": "uav2", "base": [150, -10, 0], "rotors": 6, "max_speed_mps": 9.0},
    ],
}


class TestLoadScenario:
    def test_basic_world(self):
        scenario = load_scenario(BASIC)
        assert sorted(scenario.world.uavs) == ["uav1", "uav2"]
        assert len(scenario.world.persons) == 4
        assert scenario.world.area_size_m == (300.0, 200.0)
        assert scenario.world.uavs["uav2"].spec.rotor_count == 6
        assert scenario.world.uavs["uav2"].dynamics.max_speed_mps == 9.0

    def test_requires_uavs(self):
        with pytest.raises(ScenarioError):
            load_scenario({"persons": 3})

    def test_duplicate_uav_rejected(self):
        config = dict(BASIC, uavs=[{"id": "a"}, {"id": "a"}])
        with pytest.raises(ScenarioError):
            load_scenario(config)

    def test_uav_needs_id(self):
        with pytest.raises(ScenarioError):
            load_scenario({"uavs": [{"base": [0, 0, 0]}]})

    def test_environment_section(self):
        config = dict(
            BASIC,
            environment={"wind_mean_mps": 6.0, "ambient_c": 32.0,
                         "visibility": "poor"},
        )
        scenario = load_scenario(config)
        assert scenario.world.environment is not None
        assert scenario.world.environment.visibility == "poor"
        scenario.step()
        assert scenario.world.environment.current_wind_mps > 0.0

    def test_faults_applied_during_run(self):
        config = dict(
            BASIC,
            faults=[
                {"type": "gps_denial", "uav": "uav1", "at": 2.0, "duration": 5.0},
                {"type": "motor_failure", "uav": "uav2", "at": 3.0},
            ],
        )
        scenario = load_scenario(config)
        while scenario.world.time < 4.0:
            scenario.step()
        assert scenario.world.uavs["uav1"].sensors.gps.denied
        assert scenario.world.uavs["uav2"].motors_failed == 1
        while scenario.world.time < 8.0:
            scenario.step()
        assert not scenario.world.uavs["uav1"].sensors.gps.denied

    def test_fault_unknown_uav_rejected(self):
        config = dict(
            BASIC, faults=[{"type": "imu_failure", "uav": "ghost", "at": 1.0}]
        )
        with pytest.raises(ScenarioError):
            load_scenario(config)

    def test_fault_unknown_type_rejected(self):
        config = dict(
            BASIC, faults=[{"type": "warp_core_breach", "uav": "uav1", "at": 1.0}]
        )
        with pytest.raises(ScenarioError):
            load_scenario(config)

    def test_gps_spoof_needs_offset(self):
        config = dict(
            BASIC, faults=[{"type": "gps_spoof", "uav": "uav1", "at": 1.0}]
        )
        with pytest.raises(ScenarioError):
            load_scenario(config)

    def test_ros_attack_injects_traffic(self, record_traffic):
        config = dict(
            BASIC,
            attacks=[
                {"type": "ros_spoofing", "topic": "/uav1/pose",
                 "sender": "uav1", "start": 1.0, "rate_hz": 4.0}
            ],
        )
        scenario = load_scenario(config)
        traffic = record_traffic(scenario.world.bus)
        while scenario.world.time < 5.0:
            scenario.step()
        forged = [m for m in traffic if m.is_forged]
        assert forged

    def test_unknown_attack_rejected(self):
        config = dict(BASIC, attacks=[{"type": "emp"}])
        with pytest.raises(ScenarioError):
            load_scenario(config)

    def test_json_roundtrip(self):
        scenario = load_scenario(json.loads(json.dumps(BASIC)))
        assert isinstance(scenario, Scenario)
        assert sorted(scenario.world.uavs) == ["uav1", "uav2"]

    @pytest.mark.parametrize(
        "text, needle",
        [("not json{", "not valid JSON"), ("[1, 2, 3]", "expected a JSON object")],
    )
    def test_cli_rejects_garbage_json(self, text, needle, tmp_path, capsys):
        from repro.__main__ import main

        path = tmp_path / "garbage.json"
        path.write_text(text)
        for command in ("validate", "replay"):
            assert main(["scenario", command, str(path)]) == 1
            assert needle in capsys.readouterr().err

    def test_deterministic_given_seed(self):
        a = load_scenario(BASIC)
        b = load_scenario(BASIC)
        assert [p.position for p in a.world.persons] == [
            p.position for p in b.world.persons
        ]


class TestSituationBridge:
    def test_altitude_bands(self):
        assert altitude_band(20.0) == "low"
        assert altitude_band(23.0) == "low"
        assert altitude_band(30.0) == "high"
        with pytest.raises(ValueError):
            altitude_band(0.0)


class TestArchivedScenarios:
    """Every scenario file shipped in scenarios/ must load and run."""

    @pytest.mark.parametrize(
        "name",
        ["fig5_battery_fault", "spoofing_attack", "windy_night_sar"],
    )
    def test_archived_scenario_loads_and_steps(self, name):
        import pathlib

        path = pathlib.Path(__file__).parent.parent / "scenarios" / f"{name}.json"
        scenario = load_scenario(json.loads(path.read_text()))
        assert len(scenario.world.uavs) == 3
        while scenario.world.time < 5.0:
            scenario.step()
        assert scenario.world.time >= 5.0
