"""The campaign CLI and runner as an operator drives them.

``python -m repro campaign`` is the one front door to sharded, cached
sweeps: every grid preset it lists must resolve, every bad value must
end in one stderr line and exit code 2 before anything runs, and a run
must report the same fingerprint as calling :func:`run_campaign`
directly — across worker counts, cache roots and interrupt/resume.
"""

from __future__ import annotations

import json
import re

import pytest

import repro.experiments.campaigns  # noqa: F401  (registers experiments)
import repro.harness.chaos  # noqa: F401  (registers "chaos")
from repro.__main__ import main
from repro.harness import oracles
from repro.harness.cache import ResultCache
from repro.harness.campaign import (
    get_experiment,
    list_experiments,
    run_campaign,
)
from repro.harness.fuzz.generator import ScenarioGenerator, scenario_to_json
from repro.obs.export import prometheus_text

CATALOGUE = [(e.name, p) for e in list_experiments() for p in e.presets]
PRESET_CHECKED = [e.name for e in list_experiments() if e.name != "fuzz"]


def cli_fingerprint(out: str) -> str:
    match = re.search(r"fingerprint: (\w+)", out)
    assert match, out
    return match.group(1)


def assert_usage_error(capsys, argv: list[str], *needles: str) -> str:
    assert main(["campaign", *argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1, err
    for needle in needles:
        assert needle in err
    return err


@pytest.fixture
def in_tmp(tmp_path, monkeypatch):
    """Run the CLI from a scratch directory (caches, artifacts, markers)."""
    monkeypatch.chdir(tmp_path)
    return tmp_path


class TestCatalogue:
    @pytest.mark.parametrize("name, preset", CATALOGUE)
    def test_every_catalogued_preset_resolves(self, name, preset):
        experiment = get_experiment(name)
        grid = experiment.grids(preset)
        assert grid
        assert all(isinstance(config, dict) for config in grid)
        # Configs feed cache keys and manifests, so they must be JSON.
        assert json.loads(json.dumps(grid)) == grid
        assert experiment.grids(preset) == grid

    def test_unknown_experiment_lists_registered(self, capsys):
        err = assert_usage_error(capsys, ["nope"], "'nope'")
        for experiment in list_experiments():
            assert experiment.name in err

    @pytest.mark.parametrize("name", PRESET_CHECKED)
    def test_unknown_grid_lists_known_presets(self, capsys, name):
        err = assert_usage_error(
            capsys, [name, "--grid", "huge", "--no-cache"], "'huge'", name
        )
        for preset in get_experiment(name).presets:
            assert preset in err


class TestCliRuns:
    def test_smoke_run_matches_direct_run(self, capsys, in_tmp):
        assert main(
            ["campaign", "chaos", "--grid", "smoke", "--seed", "4",
             "--no-cache"]
        ) == 0
        direct = run_campaign("chaos", grid="smoke", root_seed=4)
        assert cli_fingerprint(capsys.readouterr().out) == direct.fingerprint

    def test_two_workers_match_one(self, capsys, in_tmp):
        base = ["campaign", "chaos", "--grid", "smoke", "--no-cache"]
        assert main(base) == 0
        serial = cli_fingerprint(capsys.readouterr().out)
        assert main([*base, "--workers", "2"]) == 0
        assert cli_fingerprint(capsys.readouterr().out) == serial

    def test_rerun_is_served_from_cache(self, capsys, in_tmp):
        argv = ["campaign", "chaos", "--grid", "smoke",
                "--cache-dir", str(in_tmp / "cache")]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "(0 cached, 0 failed)" in first
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "(8 cached, 0 failed)" in second
        assert cli_fingerprint(second) == cli_fingerprint(first)

    def test_manifest_and_metrics_written(self, capsys, in_tmp):
        manifest = in_tmp / "manifest.json"
        metrics = in_tmp / "metrics.prom"
        assert main(
            ["campaign", "monte-carlo", "--grid", "smoke", "--no-cache",
             "--manifest", str(manifest), "--metrics", str(metrics)]
        ) == 0
        out = capsys.readouterr().out
        assert f"manifest: {manifest}" in out
        assert f"metrics: {metrics}" in out
        assert json.loads(manifest.read_text())["totals"]["samples"] == 2
        text = metrics.read_text()
        assert "# HELP bus_published_total" in text
        assert "# TYPE bus_published_total counter" in text
        assert 'bus_published_total{topic="/uav1/telemetry"}' in text

    @pytest.mark.parametrize(
        "argv",
        [["--workers", "1"], ["--retries", "0"], ["--max-failures", "0"],
         ["--backoff", "0"], ["--timeout", "30"]],
        ids=["workers-1", "retries-0", "max-failures-0", "backoff-0",
             "timeout-30"],
    )
    def test_boundary_values_accepted(self, capsys, in_tmp, argv):
        assert main(
            ["campaign", "chaos", "--grid", "smoke", "--no-cache", *argv]
        ) == 0
        out, err = capsys.readouterr()
        assert "samples: 8 (0 cached, 0 failed)" in out
        assert err == ""


class TestFuzzCli:
    def test_zero_count_rejected(self, capsys, in_tmp):
        assert_usage_error(
            capsys, ["fuzz", "--profile", "smoke", "--count", "0"], "--count"
        )

    def test_bad_chaos_json_rejected(self, capsys, in_tmp):
        assert_usage_error(
            capsys, ["fuzz", "--profile", "smoke", "--chaos", "{bad"], "--chaos"
        )

    def test_profile_with_count_runs(self, capsys, in_tmp):
        assert main(
            ["campaign", "fuzz", "--profile", "smoke", "--count", "2",
             "--no-cache"]
        ) == 0
        out = capsys.readouterr().out
        assert "grid=smoke:2" in out
        assert "samples: 2 (0 cached, 0 failed)" in out

    def test_swarm_violation_reports_unshrunk_reproducer(
        self, capsys, in_tmp, monkeypatch
    ):
        # Swarm reproducers are saved without a shrink result; the CLI
        # must still list each one and how to replay it.
        real = oracles.run_swarm_oracles

        def violating(config, *args, **kwargs):
            report = real(config, *args, **kwargs)
            report.violations.append(
                oracles.Violation("swarm_tasking", None, None, "forced")
            )
            return report

        monkeypatch.setattr(oracles, "run_swarm_oracles", violating)
        assert main(
            ["campaign", "fuzz", "--profile", "hostile", "--count", "4",
             "--no-cache", "--artifacts", str(in_tmp / "artifacts")]
        ) == 1
        out = capsys.readouterr().out
        saved = sorted((in_tmp / "artifacts").glob("repro_*.json"))
        assert len(saved) == 1
        assert f"repro: {saved[0]}" in out
        assert f"python -m repro scenario replay {saved[0]}" in out


class TestScenarioReplayCli:
    def test_swarm_reproducer_replays_under_swarm_oracles(
        self, capsys, tmp_path
    ):
        path = tmp_path / "swarm.json"
        path.write_text(
            scenario_to_json(ScenarioGenerator(4).generate_swarm("hostile"))
        )
        assert main(["scenario", "replay", str(path)]) == 0
        out = capsys.readouterr().out
        assert "swarm_tasking" in out
        assert "all oracles passed" in out
        assert main(["scenario", "replay", str(path), "--horizon", "20"]) == 0
        assert "40 steps over 20 s sim time" in capsys.readouterr().out

    def test_swarm_file_validates_with_the_replay_loader(self, capsys, tmp_path):
        path = tmp_path / "swarm.json"
        path.write_text(
            scenario_to_json(ScenarioGenerator(4).generate_swarm("hostile"))
        )
        assert main(["scenario", "validate", str(path)]) == 0
        out = capsys.readouterr().out
        assert "OK" in out
        assert "k_leaders=3, rho=8, n_pois=18" in out

    def test_swarm_file_missing_a_required_key_fails_validation(
        self, capsys, tmp_path
    ):
        # Every top-level swarm key has a default; a fault entry's "at"
        # does not, and the loader reads it when it builds the swarm.
        config = ScenarioGenerator(4).generate_swarm("hostile")
        del config["faults"][0]["at"]
        path = tmp_path / "swarm.json"
        path.write_text(scenario_to_json(config))
        assert main(["scenario", "validate", str(path)]) == 1
        err = capsys.readouterr().err
        assert "does not load" in err
        assert "'at'" in err


class TestInterruptAndResume:
    @pytest.mark.parametrize("at", [0, 3, 5])
    def test_interrupted_then_rerun_matches_clean_run(self, tmp_path, at):
        armed = tmp_path / "armed"
        armed.write_text("armed")
        grid = [{"i": i, "n": 128, "loc": float(i)} for i in range(6)]
        grid[at] = {
            **grid[at],
            "fault": {"mode": "interrupt", "armed_file": str(armed)},
        }
        cache_dir = tmp_path / "cache"
        with pytest.raises(KeyboardInterrupt):
            run_campaign("chaos", grid=grid, root_seed=11, cache_dir=cache_dir)
        assert ResultCache(cache_dir).count("chaos") == at

        armed.unlink()
        resumed = run_campaign(
            "chaos", grid=grid, root_seed=11, cache_dir=cache_dir
        )
        clean = run_campaign(
            "chaos", grid=grid, root_seed=11, cache_dir=tmp_path / "clean"
        )
        assert resumed.manifest["totals"]["cached"] == at
        assert resumed.manifest["totals"]["failed"] == 0
        assert resumed.fingerprint == clean.fingerprint
        assert resumed.results == clean.results


class TestCacheRoots:
    def test_separate_roots_share_nothing_but_agree(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        first_a = run_campaign("chaos", grid="smoke", root_seed=2, cache_dir=a)
        first_b = run_campaign("chaos", grid="smoke", root_seed=2, cache_dir=b)
        assert first_a.manifest["totals"]["cached"] == 0
        assert first_b.manifest["totals"]["cached"] == 0
        assert ResultCache(a).count("chaos") == 8
        assert ResultCache(b).count("chaos") == 8
        assert first_a.fingerprint == first_b.fingerprint
        again_a = run_campaign("chaos", grid="smoke", root_seed=2, cache_dir=a)
        assert again_a.manifest["totals"]["cached"] == 8
        assert again_a.fingerprint == first_a.fingerprint


class TestObservedCampaignExposition:
    def test_merged_metrics_render_as_valid_prometheus(self):
        result = run_campaign("monte-carlo", grid="smoke", observe=True)
        text = prometheus_text(result.manifest["metrics"])
        helped: set[str] = set()
        typed: dict[str, str] = {}
        samples = 0
        for line in text.splitlines():
            if line.startswith("# HELP "):
                helped.add(line.split()[2])
            elif line.startswith("# TYPE "):
                _, _, family, kind = line.split()
                assert family in helped, line
                typed[family] = kind
            else:
                name = re.match(r"[a-zA-Z_:][a-zA-Z0-9_:]*", line).group(0)
                base = re.sub(r"_(bucket|sum|count)$", "", name)
                assert name in typed or base in typed, (
                    f"sample before its TYPE: {line}"
                )
                samples += 1
        assert samples
        assert typed["bus_published_total"] == "counter"
        assert typed["world_tick_duration_s"] == "histogram"
