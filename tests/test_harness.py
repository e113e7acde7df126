"""Unit tests for the campaign harness and the per-UAV seeding fix."""

from __future__ import annotations

import json

import pytest

from repro.experiments.common import build_three_uav_world, uav_rng_streams
from repro.harness.cache import ResultCache, code_fingerprint, sample_key, stable_hash
from repro.harness.campaign import SampleRecord, get_experiment, run_campaign
from repro.harness.chaos import chaos_sample
from repro.harness.manifest import (
    deterministic_view,
    manifest_fingerprint,
)
from repro.harness.seeding import spawn_sample_seeds
from repro.harness.timing import PhaseTimer


def full_record(index: int = 0, result: dict | None = None, **extra) -> dict:
    """A schema-complete sample record for cache tests."""
    return {
        "index": index, "seed": 100 + index, "config": {"i": index},
        "result": {"v": float(index)} if result is None else result,
        "wall_time_s": 0.01, "worker": "test", "cached": False,
        "timings": {}, "status": "ok", "attempts": 1, **extra,
    }


class TestSeeding:
    def test_streams_are_deterministic(self):
        assert spawn_sample_seeds(7, 5) == spawn_sample_seeds(7, 5)

    def test_sample_seed_independent_of_grid_size(self):
        # Sample i's seed must not depend on how many samples exist —
        # that's what makes one manifest entry reproducible in isolation.
        many = spawn_sample_seeds(7, 50)
        for index in (0, 3, 49):
            assert spawn_sample_seeds(7, index + 1)[index] == many[index]

    def test_distinct_roots_give_distinct_streams(self):
        assert spawn_sample_seeds(1, 8) != spawn_sample_seeds(2, 8)

    def test_seeds_fit_signed_64(self):
        assert all(0 <= s < 2**63 for s in spawn_sample_seeds(3, 100))

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            spawn_sample_seeds(0, -1)


class TestCacheKeys:
    def test_stable_hash_ignores_key_order(self):
        assert stable_hash({"a": 1, "b": 2}) == stable_hash({"b": 2, "a": 1})

    def test_sample_key_varies_with_each_component(self):
        base = sample_key("e", {"x": 1}, 5, "c")
        assert sample_key("f", {"x": 1}, 5, "c") != base
        assert sample_key("e", {"x": 2}, 5, "c") != base
        assert sample_key("e", {"x": 1}, 6, "c") != base
        assert sample_key("e", {"x": 1}, 5, "d") != base

    def test_code_fingerprint_tracks_source_and_version(self):
        fp = code_fingerprint(chaos_sample)
        assert fp == code_fingerprint(chaos_sample)
        assert fp != code_fingerprint(chaos_sample, version="2")

    def test_cache_round_trip_and_corruption_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        record = full_record(index=0, result={"v": 1.5})
        cache.put("exp", "k1", record)
        assert cache.get("exp", "k1") == record
        assert cache.count("exp") == 1
        (tmp_path / "exp" / "k1.json").write_text("{broken")
        assert cache.get("exp", "k1") is None
        # Corrupt entries are evicted, not left to shadow future puts.
        assert not (tmp_path / "exp" / "k1.json").exists()

    def test_old_schema_record_is_a_miss_and_evicted(self, tmp_path):
        # A record written before `status`/`attempts` became required
        # must read as a miss (and get evicted), not crash the campaign.
        cache = ResultCache(tmp_path)
        v1_record = {
            "index": 0, "seed": 1, "config": {}, "result": {"v": 1.0},
            "wall_time_s": 0.1, "worker": "w", "cached": False, "timings": {},
        }
        cache.put("exp", "k1", v1_record)
        assert cache.get("exp", "k1") is None
        assert not (tmp_path / "exp" / "k1.json").exists()

    def test_count_ignores_foreign_and_partial_files(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("exp", "k1", full_record(index=0))
        cache.put("exp", "k2", full_record(index=1))
        (tmp_path / "exp" / "notes.json").write_text('{"not": "a record"}')
        (tmp_path / "exp" / "partial.json").write_text('{"index": 3, "seed"')
        (tmp_path / "exp" / "stray.txt").write_text("ignored")
        assert cache.count("exp") == 2

    def test_put_fsyncs_before_publishing(self, tmp_path, monkeypatch):
        # Checkpoint durability: the record's bytes must be fsynced
        # before the rename publishes the file, so a SIGKILL right after
        # `put` returns can't leave a truncated record at the final
        # path. Observe the ordering by instrumenting both syscalls.
        import os as os_module

        calls = []
        real_fsync, real_replace = os_module.fsync, os_module.replace
        monkeypatch.setattr(
            "repro.harness.cache.os.fsync",
            lambda fd: (calls.append("fsync"), real_fsync(fd))[1],
        )
        monkeypatch.setattr(
            "repro.harness.cache.os.replace",
            lambda a, b: (calls.append("replace"), real_replace(a, b))[1],
        )
        cache = ResultCache(tmp_path)
        cache.put("exp", "k1", full_record(index=0))
        assert calls == ["fsync", "replace"]
        assert cache.get("exp", "k1") == full_record(index=0)

    def test_torn_write_is_evicted_not_fatal(self, tmp_path):
        # A truncated record at the *final* path (torn write from a
        # pre-fsync crash, or a copy interrupted mid-transfer) must read
        # as an evicted miss; the next put then heals the entry.
        cache = ResultCache(tmp_path)
        record = full_record(index=0, result={"v": 2.0})
        cache.put("exp", "k1", record)
        path = tmp_path / "exp" / "k1.json"
        torn = path.read_text()[: len(path.read_text()) // 2]
        path.write_text(torn)
        assert cache.get("exp", "k1") is None
        assert not path.exists()
        cache.put("exp", "k1", record)
        assert cache.get("exp", "k1") == record

    def test_interrupted_put_leaves_no_temp_litter(self, tmp_path, monkeypatch):
        # A crash *during* put (here: fsync raising) must not leave the
        # temp file behind to be mistaken for cache content later.
        cache = ResultCache(tmp_path)
        cache.put("exp", "k0", full_record(index=0))  # create the dir

        def boom(fd):
            raise OSError("disk gone")

        monkeypatch.setattr("repro.harness.cache.os.fsync", boom)
        with pytest.raises(OSError):
            cache.put("exp", "k1", full_record(index=1))
        leftovers = [
            p.name for p in (tmp_path / "exp").iterdir()
            if p.suffix == ".tmp"
        ]
        assert leftovers == []
        assert cache.get("exp", "k1") is None


class TestPhaseTimer:
    def test_phases_accumulate(self):
        timer = PhaseTimer()
        with timer.phase("a"):
            pass
        with timer.phase("a"):
            pass
        with timer.phase("b"):
            pass
        report = timer.as_dict()
        assert report["a"]["calls"] == 2
        assert report["b"]["calls"] == 1
        assert report["a"]["total_s"] >= 0.0


class TestRunCampaign:
    def test_records_in_grid_order_with_assigned_seeds(self):
        result = run_campaign("chaos", grid="smoke", root_seed=9)
        assert [r.index for r in result.records] == list(range(8))
        assert [r.seed for r in result.records] == spawn_sample_seeds(9, 8)

    def test_cache_skips_completed_points(self, tmp_path):
        first = run_campaign(
            "chaos", grid="smoke", root_seed=9, cache_dir=tmp_path
        )
        second = run_campaign(
            "chaos", grid="smoke", root_seed=9, cache_dir=tmp_path
        )
        assert first.manifest["totals"]["cached"] == 0
        assert second.manifest["totals"]["cached"] == 8
        assert second.results == first.results
        assert second.fingerprint == first.fingerprint

    def test_root_seed_changes_results(self):
        a = run_campaign("chaos", grid="smoke", root_seed=1)
        b = run_campaign("chaos", grid="smoke", root_seed=2)
        assert a.fingerprint != b.fingerprint

    def test_explicit_config_grid_is_custom(self):
        result = run_campaign("chaos", grid=[{"n": 16}], root_seed=0)
        assert result.grid == "custom"
        assert len(result.records) == 1

    def test_manifest_written_and_fingerprint_reproducible(self, tmp_path):
        path = tmp_path / "manifest.json"
        result = run_campaign(
            "chaos", grid="smoke", root_seed=4, manifest_path=path
        )
        on_disk = json.loads(path.read_text())
        assert on_disk["schema_version"] == 3
        assert manifest_fingerprint(on_disk) == result.fingerprint
        sample = on_disk["samples"][0]
        assert {"index", "seed", "config", "result", "wall_time_s", "worker",
                "cached", "timings", "status", "attempts"} <= set(sample)
        assert sample["status"] == "ok" and sample["attempts"] == 1
        assert on_disk["totals"]["failed"] == 0

    def test_single_sample_reproducible_from_manifest_entry(self, tmp_path):
        # The audit contract: re-running one sample from its manifest
        # entry (config + seed) reproduces its result exactly.
        path = tmp_path / "manifest.json"
        run_campaign("chaos", grid="smoke", root_seed=4, manifest_path=path)
        entry = json.loads(path.read_text())["samples"][3]
        redo = chaos_sample(entry["config"], entry["seed"], PhaseTimer())
        assert redo == entry["result"]

    def test_deterministic_view_strips_provenance(self):
        result = run_campaign("chaos", grid="smoke", root_seed=4)
        view = deterministic_view(result.manifest)
        assert "workers" not in view
        assert all("wall_time_s" not in s for s in view["samples"])

    def test_unknown_experiment_and_bad_workers(self):
        with pytest.raises(KeyError):
            get_experiment("no-such-experiment")
        with pytest.raises(ValueError):
            run_campaign("chaos", grid="smoke", workers=0)

    def test_manifest_is_json_serializable(self):
        result = run_campaign("chaos", grid="smoke", root_seed=0)
        json.dumps(result.manifest)

    def test_sample_record_from_dict_tolerates_older_schema(self):
        # Manifest entries from before status/attempts existed still load
        # (they fall back to the field defaults) — only truly core fields
        # are allowed to raise.
        v1_entry = {
            "index": 2, "seed": 7, "config": {"n": 4}, "result": {"v": 1.0},
            "wall_time_s": 0.5, "worker": "w", "cached": False, "timings": {},
        }
        record = SampleRecord.from_dict(v1_entry)
        assert record.status == "ok"
        assert record.attempts == 1
        assert record.error is None and record.metrics is None
        with pytest.raises(KeyError):
            SampleRecord.from_dict({"index": 0})


class TestPerUavSeeding:
    """The build_three_uav_world per-UAV stream fix."""

    def test_streams_keyed_by_position_not_fleet_size(self):
        three = uav_rng_streams(seed=11, n_uavs=3)
        five = uav_rng_streams(seed=11, n_uavs=5)
        for a, b in zip(three, five):
            assert a.bit_generator.state == b.bit_generator.state

    def test_adding_a_uav_does_not_perturb_existing_streams(self):
        w3 = build_three_uav_world(seed=11, n_persons=0)
        w4 = build_three_uav_world(seed=11, n_persons=0, n_uavs=4)
        assert w4.uav_ids == ("uav1", "uav2", "uav3", "uav4")
        for uav_id in w3.uav_ids:
            assert (
                w3.world.uavs[uav_id].rng.bit_generator.state
                == w4.world.uavs[uav_id].rng.bit_generator.state
            )

    def test_uav_streams_are_mutually_independent(self):
        scenario = build_three_uav_world(seed=11, n_persons=0)
        draws = {
            uav_id: tuple(uav.rng.random(4))
            for uav_id, uav in scenario.world.uavs.items()
        }
        assert len(set(draws.values())) == len(draws)

    def test_fleet_size_does_not_change_simulated_trajectories(self):
        # Behavioral lock: uav1 flown alongside 3 or 4 peers sees the
        # same noise, hence the same measured temperatures and positions.
        runs = []
        for n_uavs in (3, 4):
            scenario = build_three_uav_world(seed=11, n_persons=0, n_uavs=n_uavs)
            world = scenario.world
            uav = world.uavs["uav1"]
            trace = []
            for _ in range(30):
                world.step()
                trace.append(
                    (
                        uav.dynamics.position,
                        uav.sensors.temperature.measure(uav.battery.temp_c),
                    )
                )
            runs.append(trace)
        assert runs[0] == runs[1]

    def test_world_person_scatter_unchanged_by_fleet_size(self):
        w3 = build_three_uav_world(seed=11, n_persons=6)
        w5 = build_three_uav_world(seed=11, n_persons=6, n_uavs=5)
        assert [p.position for p in w3.world.persons] == [
            p.position for p in w5.world.persons
        ]

    def test_seed_still_controls_everything(self):
        a = build_three_uav_world(seed=1, n_persons=0)
        b = build_three_uav_world(seed=2, n_persons=0)
        assert (
            a.world.uavs["uav1"].rng.bit_generator.state
            != b.world.uavs["uav1"].rng.bit_generator.state
        )

    def test_uav_rng_streams_rejects_nothing_silently(self):
        assert uav_rng_streams(seed=0, n_uavs=0) == []
