"""The procedural scenario generator: determinism, validity, profiles.

The generator's contract is threefold: same seed ⇒ byte-identical JSON
(including across processes — the manifest records only the seed, so the
scenario must be reconstructible anywhere), every emitted config of
either kind loads and lints clean, and each profile stays inside its
declared envelope.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.harness.fuzz.generator import (
    PROFILES,
    ScenarioGenerator,
    get_profile,
    scenario_to_json,
)
from repro.scenario import lint_scenario, load_scenario
from repro.swarm.sim import build_swarm

SRC = str(Path(__file__).resolve().parent.parent / "src")
SEEDS = range(25)


class TestDeterminism:
    @pytest.mark.parametrize("profile", sorted(PROFILES))
    def test_same_seed_same_bytes(self, profile):
        for seed in SEEDS:
            first = scenario_to_json(ScenarioGenerator(seed).generate(profile))
            second = scenario_to_json(ScenarioGenerator(seed).generate(profile))
            assert first == second

    def test_different_seeds_differ(self):
        texts = {scenario_to_json(ScenarioGenerator(seed).generate("default"))
                 for seed in range(20)}
        assert len(texts) == 20

    def test_profiles_draw_differently_from_same_seed(self):
        texts = {scenario_to_json(ScenarioGenerator(99).generate(p)) for p in PROFILES}
        assert len(texts) == len(PROFILES)

    def test_identical_json_across_processes(self):
        # The cross-process half of the contract: a fresh interpreter
        # with the same seed emits the same bytes this process does.
        seed, profile = 4711, "default"
        local = scenario_to_json(ScenarioGenerator(seed).generate(profile))
        script = (
            "from repro.harness.fuzz.generator import ScenarioGenerator, scenario_to_json; "
            f"import sys; sys.stdout.write("
            f"scenario_to_json(ScenarioGenerator({seed}).generate({profile!r})))"
        )
        remote = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, check=True,
            env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
        ).stdout
        assert remote == local


class TestValidity:
    @pytest.mark.parametrize("profile", sorted(PROFILES))
    def test_generated_scenarios_load_and_lint_clean(self, profile):
        for seed in SEEDS:
            text = scenario_to_json(ScenarioGenerator(seed).generate(profile))
            config = json.loads(text)
            assert lint_scenario(config) == []
            scenario = load_scenario(config)
            assert sorted(scenario.world.uavs) == sorted(
                uav["id"] for uav in config["uavs"]
            )
            assert len(scenario.faults.faults) == len(config["faults"])

    @pytest.mark.parametrize("profile", sorted(PROFILES))
    def test_generated_swarm_scenarios_load_and_lint_clean(self, profile):
        for seed in SEEDS:
            config = ScenarioGenerator(seed).generate_swarm(profile)
            assert lint_scenario(config) == []
            sim = build_swarm(config)
            assert (sim.k, sim.rho) == (config["k_leaders"], config["rho"])
            assert len(sim._faults) == len(config["faults"])
            sim.close()

    def test_canonical_serialisation_round_trips(self):
        config = ScenarioGenerator(3).generate("smoke")
        text = scenario_to_json(config)
        assert json.loads(text) == config
        assert scenario_to_json(json.loads(text)) == text


class TestProfiles:
    @pytest.mark.parametrize("profile_name", sorted(PROFILES))
    def test_draws_respect_the_profile_envelope(self, profile_name):
        profile = PROFILES[profile_name]
        for seed in SEEDS:
            config = ScenarioGenerator(seed).generate(profile_name)
            assert profile.uavs[0] <= len(config["uavs"]) <= profile.uavs[1]
            assert config["dt"] in profile.dt_choices
            assert len(config["faults"]) <= profile.max_faults
            assert len(config["attacks"]) <= profile.max_attacks
            assert (
                profile.persons[0] <= config["persons"] <= profile.persons[1]
            )
            # Horizon is a dt multiple within (roughly) the declared band.
            steps = config["horizon_s"] / config["dt"]
            assert steps == pytest.approx(round(steps))
            fault_types = {fault["type"] for fault in config["faults"]}
            assert fault_types <= set(profile.fault_types)
            assert f"seed={seed}" in config["description"]

    def test_smoke_profile_never_draws_comm_faults_or_attacks(self):
        for seed in SEEDS:
            config = ScenarioGenerator(seed).generate("smoke")
            assert config["attacks"] == []
            assert not {f["type"] for f in config["faults"]} & {
                "comm_blackout", "comm_degradation", "network_partition"
            }

    def test_unknown_profile_rejected(self):
        with pytest.raises(KeyError, match="unknown fuzz profile"):
            get_profile("nightmare")

    def test_partition_groups_are_disjoint_and_known(self):
        # Hunt for generated partitions and check their shape.
        found = 0
        for seed in range(120):
            config = ScenarioGenerator(seed).generate("hostile")
            ids = {uav["id"] for uav in config["uavs"]}
            for fault in config["faults"]:
                if fault["type"] != "network_partition":
                    continue
                found += 1
                group_a, group_b = set(fault["group_a"]), set(fault["group_b"])
                assert group_a and group_b
                assert not group_a & group_b
                assert group_a | group_b <= ids
        assert found > 0, "no partitions drawn in 120 hostile scenarios"
