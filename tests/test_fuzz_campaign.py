"""The fuzz campaign and the failure shrinker, end to end.

Covers the full loop the ISSUE's acceptance criteria describe: a clean
engine fuzzes green with a deterministic manifest fingerprint; a
chaos-armed (intentionally broken) engine yields oracle violations,
and the shrinker reduces each violating scenario to a strictly smaller
standalone reproducer.
"""

from __future__ import annotations

import json

import pytest

from repro.harness.fuzz.campaign import run_fuzz
from repro.harness.fuzz.shrink import shrink_scenario
from repro.harness.fuzz.campaign import (
    fuzz_grid,
    fuzz_sample,
    sample_scenario,
)
from repro.harness.fuzz.generator import ScenarioGenerator
from repro.harness.fuzz.shrink import scenario_size
from repro.harness.manifest import manifest_fingerprint
from repro.harness.oracles import run_scenario_oracles
from repro.harness.timing import PhaseTimer

CHAOS = {"mode": "teleport", "uav": "uav1", "at": 10.0}


class TestFuzzGrid:
    def test_preset_parsing(self):
        assert len(fuzz_grid("smoke:7")) == 7
        assert fuzz_grid("smoke:2") == [
            {"profile": "smoke", "case": 0},
            {"profile": "smoke", "case": 1},
        ]
        assert len(fuzz_grid("smoke")) > 0  # default count

    def test_bad_presets_rejected(self):
        with pytest.raises(KeyError):
            fuzz_grid("nightmare:5")
        with pytest.raises(ValueError):
            fuzz_grid("smoke:0")

    def test_registered_in_the_catalogue(self):
        from repro.experiments.campaigns import get_experiment

        assert get_experiment("fuzz").name == "fuzz"


class TestFuzzSample:
    def test_sample_carries_oracle_verdict(self):
        result = fuzz_sample({"profile": "smoke", "case": 0}, 123, PhaseTimer())
        assert result["oracles"]["passed"] is True
        assert result["profile"] == "smoke"
        assert result["n_uavs"] >= 1

    def test_scenario_reconstructible_from_seed_alone(self):
        # The manifest audit contract: config + seed fully determine the
        # scenario that ran.
        config = {"profile": "default", "case": 3}
        assert sample_scenario(config, 999) == sample_scenario(config, 999)
        assert (
            sample_scenario(config, 999)
            == ScenarioGenerator(999).generate("default")
        )

    def test_chaos_block_merges_into_generated_scenario(self):
        scenario = sample_scenario(
            {"profile": "smoke", "case": 0, "chaos": CHAOS}, 7
        )
        assert scenario["chaos"] == CHAOS

    def test_explicit_scenario_wins_over_generation(self):
        explicit = {"seed": 1, "uavs": [{"id": "u", "base": [0, 0, 0]}]}
        scenario = sample_scenario({"scenario": explicit}, 42)
        assert scenario == explicit


class TestFuzzCampaign:
    def test_clean_engine_fuzzes_green_and_deterministically(self, tmp_path):
        first = run_fuzz(
            "smoke", count=6, root_seed=11, workers=1,
            manifest_path=tmp_path / "m1.json",
        )
        second = run_fuzz(
            "smoke", count=6, root_seed=11, workers=3,
            manifest_path=tmp_path / "m2.json",
        )
        assert first.ok and second.ok
        m1, m2 = (json.loads((tmp_path / name).read_text()) for name in ("m1.json", "m2.json"))
        assert manifest_fingerprint(m1) == manifest_fingerprint(m2)
        assert m1["schema_version"] == 3
        sample = m1["samples"][0]
        assert sample["oracles"]["passed"] is True
        assert sample["status"] == "ok"

    def test_oracles_block_participates_in_fingerprint(self, tmp_path):
        run_fuzz("smoke", count=2, root_seed=5,
                 manifest_path=tmp_path / "m.json")
        manifest = json.loads((tmp_path / "m.json").read_text())
        baseline = manifest_fingerprint(manifest)
        manifest["samples"][0]["oracles"]["passed"] = False
        assert manifest_fingerprint(manifest) != baseline

    def test_chaos_armed_engine_is_caught_shrunk_and_reproducible(
        self, tmp_path
    ):
        outcome = run_fuzz(
            "smoke", count=2, root_seed=11, workers=1,
            manifest_path=tmp_path / "m.json",
            artifacts_dir=tmp_path / "artifacts",
            chaos=CHAOS, max_shrink=2,
        )
        assert not outcome.ok
        assert len(outcome.violations) == 2
        assert len(outcome.repro_paths) == 2
        for record in outcome.violations:
            # The quarantined verdict is in the manifest record.
            assert record.oracles["passed"] is False
            assert record.oracles["violations"][0]["oracle"] == "teleport_bound"
            path = outcome.repro_paths[record.seed]
            assert path.name == f"repro_{record.seed}.json"
            minimized = json.loads(path.read_text())
            # Strictly smaller than the scenario that originally ran...
            original = sample_scenario(record.config, record.seed)
            assert scenario_size(minimized) < scenario_size(original)
            # ...and still reproduces the failure standalone.
            replay = run_scenario_oracles(minimized)
            assert "teleport_bound" in replay.violated_oracles


class TestShrinker:
    def _violating_scenario(self):
        scenario = ScenarioGenerator(20).generate("default")
        scenario["chaos"] = dict(CHAOS)
        return scenario

    def test_minimized_scenario_reproduces_and_is_strictly_smaller(self):
        scenario = self._violating_scenario()
        assert not run_scenario_oracles(scenario).passed
        result = shrink_scenario(scenario)
        assert result.oracle == "teleport_bound"
        assert scenario_size(result.config) < scenario_size(scenario)
        replay = run_scenario_oracles(result.config)
        assert result.oracle in replay.violated_oracles

    def test_shrinks_to_the_chaos_essentials(self):
        result = shrink_scenario(self._violating_scenario())
        config = result.config
        # Only the chaos target can be load-bearing for a teleport bug.
        assert [uav["id"] for uav in config["uavs"]] == ["uav1"]
        assert config.get("faults", []) == []
        assert config.get("attacks", []) == []
        # Horizon clipped to just past the chaos fire time.
        assert config["horizon_s"] == pytest.approx(CHAOS["at"])

    def test_input_config_is_not_mutated(self):
        scenario = self._violating_scenario()
        snapshot = json.loads(json.dumps(scenario))
        shrink_scenario(scenario)
        assert scenario == snapshot

    def test_non_violating_scenario_rejected(self):
        scenario = ScenarioGenerator(20).generate("smoke")
        with pytest.raises(ValueError, match="violates no oracle"):
            shrink_scenario(scenario)

    def test_wrong_target_oracle_rejected(self):
        with pytest.raises(ValueError, match="does not violate"):
            shrink_scenario(
                self._violating_scenario(), target_oracle="soc_monotonic"
            )
