"""Validation tests: every archived scenario loads; loader errors name fields."""

import json
from pathlib import Path

import pytest

from repro.scenario import ScenarioError, load_scenario
from repro.schema import SAR

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
SCENARIO_FILES = sorted(SCENARIOS.glob("*.json"))


class TestArchivedScenarios:
    def test_archive_is_not_empty(self):
        assert SCENARIO_FILES

    @pytest.mark.parametrize(
        "path", SCENARIO_FILES, ids=[p.stem for p in SCENARIO_FILES]
    )
    def test_summary_reads_vectors_as_values_and_lists_as_counts(self, path):
        config = json.loads(path.read_text())
        summary = SAR.summary(config).split(", ")
        width, height = config.get("area_size_m", (400, 300))
        assert f"area_size_m={width:g}x{height:g}" in summary
        assert f"uavs={len(config['uavs'])}" in summary
        assert f"faults={len(config.get('faults', []))}" in summary

    @pytest.mark.parametrize(
        "path", SCENARIO_FILES, ids=[p.stem for p in SCENARIO_FILES]
    )
    def test_roundtrips_through_the_loader(self, path):
        config = json.loads(path.read_text())
        scenario = load_scenario(config)
        assert sorted(scenario.world.uavs) == sorted(
            u["id"] for u in config["uavs"]
        )
        assert len(scenario.world.persons) == config.get("persons", 0)
        assert len(scenario.faults.faults) == len(config.get("faults", []))
        # A re-serialised config loads to the same fleet.
        again = load_scenario(json.loads(json.dumps(scenario.config)))
        assert sorted(again.world.uavs) == sorted(scenario.world.uavs)

    @pytest.mark.parametrize(
        "path", SCENARIO_FILES, ids=[p.stem for p in SCENARIO_FILES]
    )
    def test_scenarios_step_cleanly(self, path):
        scenario = load_scenario(json.loads(path.read_text()))
        while scenario.world.time < 2.0:
            scenario.step()
        assert scenario.world.time >= 2.0


BASE = {
    "seed": 1,
    "uavs": [{"id": "uav1", "base": [0, 0, 0]}],
}


def _mutated(**overrides):
    config = json.loads(json.dumps(BASE))
    config.update(overrides)
    return config


class TestErrorsNameTheOffendingField:
    """Every loader rejection must point at the field that caused it."""

    @pytest.mark.parametrize(
        "config, fragment",
        [
            (_mutated(seed="not-a-number"), "seed"),
            (_mutated(dt="fast"), "dt"),
            (_mutated(dt=0), "dt"),
            (_mutated(area_size_m=[100]), "area_size_m"),
            (_mutated(area_size_m=[100, "wide"]), "area_size_m[1]"),
            (_mutated(persons="many"), "persons"),
            (_mutated(environment={"wind_mean_mps": "breezy"}),
             "environment.wind_mean_mps"),
            (_mutated(environment={"ambient_c": None}),
             "environment.ambient_c"),
            (_mutated(uavs={"id": "uav1"}), "'uavs' list"),
            (_mutated(uavs=[{"base": [0, 0, 0]}]), "uavs[0]"),
            (_mutated(uavs=[{"id": "a"}, {"id": "a"}]), "uavs[1].id"),
            (_mutated(uavs=[{"id": "u", "base": [0, 0]}]), "uavs[0] (u).base"),
            (_mutated(uavs=[{"id": "u", "rotors": "six"}]),
             "uavs[0] (u).rotors"),
            (_mutated(uavs=[{"id": "u", "max_speed_mps": "fast"}]),
             "uavs[0] (u).max_speed_mps"),
            (_mutated(faults=[{"uav": "uav1", "at": 1.0}]), "faults[0]"),
            (_mutated(faults=[{"type": "imu_failure", "uav": "uav1",
                               "at": "soon"}]), "faults[0].at"),
            (_mutated(faults=[{"type": "battery_collapse", "uav": "uav1",
                               "at": 1.0, "soc_drop_to": "low"}]),
             "faults[0].soc_drop_to"),
            (_mutated(faults=[{"type": "gps_denial", "uav": "uav1",
                               "at": 1.0, "duration": "short"}]),
             "faults[0].duration"),
            (_mutated(faults=[{"type": "gps_spoof", "uav": "uav1",
                               "at": 1.0}]), "faults[0].offset"),
            (_mutated(faults=[{"type": "gps_spoof", "uav": "uav1",
                               "at": 1.0, "offset": [1, "east", 0]}]),
             "faults[0].offset[1]"),
            (_mutated(faults=[{"type": "camera_degradation", "uav": "uav1",
                               "at": 1.0, "rate": []}]), "faults[0].rate"),
            (_mutated(faults=[{"type": "warp_drive", "uav": "uav1",
                               "at": 1.0}]), "faults[0]"),
            (_mutated(faults=[{"type": "imu_failure", "uav": "ghost",
                               "at": 1.0}]), "faults[0].uav"),
            (_mutated(attacks=[{"type": "emp"}]), "attacks[0].type"),
            (_mutated(attacks=[{"type": "ros_spoofing",
                                "rate_hz": "often"}]),
             "attacks[0].rate_hz"),
            (_mutated(attacks=[{"type": "ros_spoofing", "start": "dawn"}]),
             "attacks[0].start"),
            (_mutated(attacks=[{"type": "ros_spoofing", "sender": "ghost"}]),
             "attacks[0].sender"),
            (_mutated(uavs=[{"id": "u", "mission": []}]),
             "uavs[0] (u).mission"),
            (_mutated(uavs=[{"id": "u", "mission": [[1, 2]]}]),
             "uavs[0] (u).mission[0]"),
            (_mutated(faults=[{"type": "comm_blackout", "uav": "uav1",
                               "at": 1.0}]), "faults[0].duration"),
            (_mutated(faults=[{"type": "comm_blackout", "uav": "ghost",
                               "at": 1.0, "duration": 5}]), "faults[0].uav"),
            (_mutated(faults=[{"type": "comm_degradation", "uav": "uav1",
                               "at": 1.0, "loss": 1.5}]), "faults[0].loss"),
            (_mutated(faults=[{"type": "network_partition", "at": 1.0,
                               "group_a": [], "group_b": ["uav1"]}]),
             "faults[0].group_a"),
            (_mutated(faults=[{"type": "network_partition", "at": 1.0,
                               "group_a": ["uav1"], "group_b": ["ghost"]}]),
             "faults[0].group_b"),
            (_mutated(uavs=[{"id": "a", "base": [0, 0, 0]},
                            {"id": "b", "base": [5, 0, 0]}],
                      faults=[{"type": "network_partition", "at": 1.0,
                               "group_a": ["a", "b"], "group_b": ["b"]}]),
             "faults[0].group_b"),
        ],
        ids=lambda v: v if isinstance(v, str) else None,
    )
    def test_error_message_names_field(self, config, fragment):
        with pytest.raises(ScenarioError) as excinfo:
            load_scenario(config)
        assert fragment in str(excinfo.value)

    def test_second_fault_reports_its_own_index(self):
        config = _mutated(
            faults=[
                {"type": "imu_failure", "uav": "uav1", "at": 1.0},
                {"type": "imu_failure", "uav": "uav1", "at": "later"},
            ]
        )
        with pytest.raises(ScenarioError, match=r"faults\[1\]\.at"):
            load_scenario(config)

    def test_comm_faults_build_a_degraded_bus(self):
        from repro.middleware.degraded import DegradedBus

        scenario = load_scenario(
            _mutated(
                uavs=[{"id": "a", "base": [0, 0, 0]},
                      {"id": "b", "base": [5, 0, 0]}],
                faults=[
                    {"type": "comm_blackout", "uav": "a", "at": 1.0,
                     "duration": 2.0},
                    {"type": "network_partition", "at": 2.0,
                     "group_a": ["a"], "group_b": ["b"], "duration": 1.0},
                ],
            )
        )
        assert isinstance(scenario.world.bus, DegradedBus)
        while scenario.world.time < 4.0:
            scenario.step()

    def test_lint_flags_unknown_keys_without_raising(self):
        from repro.scenario import lint_scenario

        problems = lint_scenario(
            _mutated(fautls=[], chaos={"mode": "warp"})
        )
        assert any("fautls" in p for p in problems)
        assert any("chaos.mode" in p for p in problems)

    def test_legacy_engine_key_is_ignored_and_linted(self):
        # Old fuzz repros (repro_<seed>.json) still carry an "engine" key.
        # The loader ignores it like any unknown key and picks the engine
        # from the fleet size; the linter names it.
        from repro.scenario import lint_scenario

        legacy = _mutated(engine="vectorized")
        assert load_scenario(legacy).world.engine == "scalar"
        assert any(p.startswith("scenario.engine:") for p in lint_scenario(legacy))

    def test_lint_clean_scenario_reports_nothing(self):
        from repro.scenario import lint_scenario

        assert lint_scenario(_mutated()) == []

    def test_valid_config_still_loads_after_hardening(self):
        scenario = load_scenario(
            _mutated(
                dt=0.25,
                area_size_m=[120, 80],
                persons=2,
                environment={"wind_mean_mps": 4.0},
                faults=[{"type": "motor_failure", "uav": "uav1", "at": 1.0}],
                attacks=[{"type": "ros_spoofing", "topic": "/uav1/pose",
                          "sender": "uav1", "start": 0.5, "rate_hz": 2.0}],
            )
        )
        assert scenario.world.dt == 0.25
        while scenario.world.time < 1.5:
            scenario.step()
        assert scenario.world.uavs["uav1"].motors_failed == 1


def test_zero_gps_denial_duration_clears_at_onset():
    # A 0 s denial is 0 s long, as every other fault reads a duration.
    scenario = load_scenario(
        _mutated(faults=[{"type": "gps_denial", "uav": "uav1", "at": 5.0,
                          "duration": 0}])
    )
    (fault,) = scenario.faults.faults
    assert fault.clear_at_time == 5.0


#: One malformed input per schema rule, and the field its report must name.
MALFORMED = [
    ("uav-entry-not-an-object", _mutated(uavs=[5]), "uavs[0]"),
    ("fault-entry-not-an-object", _mutated(faults=[5]), "faults[0]"),
    ("attack-entry-not-an-object", _mutated(attacks=[5]), "attacks[0]"),
    ("attacks-not-a-list", _mutated(attacks={"type": "ros_spoofing"}),
     "attacks"),
    ("environment-not-an-object", _mutated(environment=5), "environment"),
    ("comms-not-an-object", _mutated(comms=5), "comms"),
    ("unknown-visibility", _mutated(environment={"visibility": "foggy"}),
     "environment.visibility"),
    ("unsupported-rotor-count", _mutated(uavs=[{"id": "u", "rotors": 5}]),
     "uavs[0] (u).rotors"),
    ("zero-attack-rate", _mutated(attacks=[{"type": "ros_spoofing",
                                            "rate_hz": 0}]),
     "attacks[0].rate_hz"),
    ("negative-speed", _mutated(uavs=[{"id": "u", "max_speed_mps": -1}]),
     "uavs[0] (u).max_speed_mps"),
    ("nan-string-time", _mutated(faults=[{"type": "imu_failure", "uav": "uav1",
                                          "at": "nan"}]), "faults[0].at"),
    ("bool-time", _mutated(faults=[{"type": "imu_failure", "uav": "uav1",
                                    "at": True}]), "faults[0].at"),
    ("negative-duration", _mutated(faults=[{"type": "gps_denial", "uav": "uav1",
                                            "at": 1.0, "duration": -5}]),
     "faults[0].duration"),
    ("negative-persons", _mutated(persons=-2), "persons"),
    ("negative-area", _mutated(area_size_m=[-10, 5]), "area_size_m[0]"),
    ("soc-above-one", _mutated(faults=[{"type": "battery_collapse",
                                        "uav": "uav1", "at": 1.0,
                                        "soc_drop_to": 2.0}]),
     "faults[0].soc_drop_to"),
    ("negative-camera-rate", _mutated(faults=[{"type": "camera_degradation",
                                               "uav": "uav1", "at": 1.0,
                                               "rate": -1}]),
     "faults[0].rate"),
    ("fractional-seed", _mutated(seed=7.9), "seed"),
    ("number-as-string", _mutated(dt="inf"), "dt"),
    ("nan-number", _mutated(environment={"wind_mean_mps": float("nan")}),
     "environment.wind_mean_mps"),
    ("swarm-loss-above-one", {"kind": "swarm", "link_loss": 3}, "link_loss"),
]


class TestMalformedInputIsReported:
    """A malformed file is a report naming its field, from the linter and
    both CLI commands, never a traceback or an oracle violation."""

    @pytest.mark.parametrize(
        "config, field", [case[1:] for case in MALFORMED],
        ids=[case[0] for case in MALFORMED],
    )
    def test_reported_naming_the_field(self, config, field, tmp_path, capsys):
        from repro.__main__ import main
        from repro.scenario import lint_scenario

        problems = lint_scenario(config)
        assert any(field in problem for problem in problems), problems
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(config))
        assert main(["scenario", "validate", str(path)]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert field in err
        assert main(["scenario", "replay", str(path)]) == 1
        err = capsys.readouterr().err
        assert "does not load" in err
        assert "VIOLATION" not in err
