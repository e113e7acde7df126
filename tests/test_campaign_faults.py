"""Campaign fault tolerance: checkpoint, quarantine, retry, resume.

The harness-level guarantees behind large Monte-Carlo campaigns: one
broken grid point must never cost the completed ones. Uses the
registered ``chaos`` experiment, whose injected faults (crash / hang /
flake / hard worker exit) are driven by on-disk state so the cache key —
and therefore the fingerprint — of a grid point is identical before and
after the "fix".
"""

from __future__ import annotations

import pytest

import repro.harness.chaos  # noqa: F401  (registers "chaos")
from repro import obs
from repro.__main__ import main
from repro.harness.cache import ResultCache
from repro.harness.campaign import (
    CampaignAborted,
    FaultPolicy,
    list_experiments,
    run_campaign,
)


def clean_grid(n: int = 6) -> list[dict]:
    return [{"i": i, "n": 128, "loc": float(i)} for i in range(n)]


def grid_with_fault(tmp_path, fault: dict, at: int = 2, n: int = 6):
    """A clean grid with one faulted point, armed via a marker file."""
    armed = tmp_path / "armed"
    armed.write_text("armed")
    grid = clean_grid(n)
    grid[at] = {**grid[at], "fault": {**fault, "armed_file": str(armed)}}
    return grid, armed


class TestQuarantine:
    def test_crashing_sample_does_not_kill_siblings(self, tmp_path):
        grid, _ = grid_with_fault(tmp_path, {"mode": "crash"})
        result = run_campaign(
            "chaos", grid=grid, root_seed=7, workers=4,
            cache_dir=tmp_path / "cache",
        )
        assert [r.index for r in result.records] == list(range(6))
        failed = result.records[2]
        assert failed.status == "failed"
        assert failed.result is None
        assert failed.attempts == 1
        assert failed.error["kind"] == "exception"
        assert failed.error["type"] == "RuntimeError"
        assert "injected crash" in failed.error["message"]
        assert all(
            r.status == "ok" and r.result is not None
            for r in result.records if r.index != 2
        )
        assert result.manifest["totals"]["failed"] == 1
        # Every record — including the quarantined one — was checkpointed.
        assert ResultCache(tmp_path / "cache").count("chaos") == 6

    def test_serial_and_parallel_failure_handling_agree(self, tmp_path):
        grid, _ = grid_with_fault(tmp_path, {"mode": "crash"})
        serial = run_campaign("chaos", grid=grid, root_seed=7, workers=1)
        parallel = run_campaign("chaos", grid=grid, root_seed=7, workers=4)

        def view(result):
            return [
                (r.index, r.seed, r.status, r.result, r.attempts,
                 (r.error or {}).get("kind"), (r.error or {}).get("type"),
                 (r.error or {}).get("message"))
                for r in result.records
            ]

        assert view(serial) == view(parallel)
        assert serial.fingerprint == parallel.fingerprint
        assert serial.manifest["totals"]["failed"] == 1

    def test_worker_hard_crash_detected(self, tmp_path):
        # os._exit in a worker: the child dies without reporting. The
        # scheduler must notice, quarantine it as a crash, and keep going.
        grid, _ = grid_with_fault(tmp_path, {"mode": "hard-crash"})
        result = run_campaign("chaos", grid=grid, root_seed=7, workers=2)
        failed = result.records[2]
        assert failed.status == "failed"
        assert failed.error["kind"] == "crash"
        assert "41" in failed.error["message"]
        assert sum(1 for r in result.records if r.status == "ok") == 5

    def test_timeout_quarantines_hung_sample(self, tmp_path):
        grid, _ = grid_with_fault(tmp_path, {"mode": "hang", "hang_s": 60.0})
        policy = FaultPolicy(timeout_s=0.5)
        result = run_campaign(
            "chaos", grid=grid, root_seed=7, workers=2, policy=policy
        )
        failed = result.records[2]
        assert failed.status == "failed"
        assert failed.error["kind"] == "timeout"
        assert result.manifest["totals"]["failed"] == 1
        assert sum(1 for r in result.records if r.status == "ok") == 5

    def test_timeout_policy_is_supervised_even_serially(self, tmp_path):
        # workers=1 with a timeout still terminates the hung sample
        # (the policy forces supervised child processes).
        grid, _ = grid_with_fault(tmp_path, {"mode": "hang", "hang_s": 60.0})
        result = run_campaign(
            "chaos", grid=grid, root_seed=7, workers=1,
            policy=FaultPolicy(timeout_s=0.5),
        )
        assert result.records[2].error["kind"] == "timeout"
        assert result.manifest["totals"]["failed"] == 1


class TestRetries:
    def test_flaky_sample_retries_to_success(self, tmp_path):
        grid = clean_grid(4)
        grid[1] = {
            **grid[1],
            "fault": {"mode": "flaky", "fails": 2, "dir": str(tmp_path / "m")},
        }
        policy = FaultPolicy(max_attempts=3, backoff_s=0.0)
        result = run_campaign(
            "chaos", grid=grid, root_seed=3, workers=2, policy=policy
        )
        assert result.manifest["totals"]["failed"] == 0
        assert result.records[1].status == "ok"
        assert result.records[1].attempts == 3
        assert all(r.attempts == 1 for r in result.records if r.index != 1)
        # Retries re-ran with the original seed: the flaked-then-passed
        # campaign fingerprints identically to a clean re-run.
        rerun = run_campaign("chaos", grid=grid, root_seed=3, workers=2)
        assert rerun.manifest["totals"]["failed"] == 0
        assert rerun.fingerprint == result.fingerprint
        assert rerun.results == result.results

    def test_insufficient_retries_still_quarantine(self, tmp_path):
        grid = clean_grid(3)
        grid[0] = {
            **grid[0],
            "fault": {"mode": "flaky", "fails": 5, "dir": str(tmp_path / "m")},
        }
        result = run_campaign(
            "chaos", grid=grid, root_seed=3,
            policy=FaultPolicy(max_attempts=2),
        )
        assert result.records[0].status == "failed"
        assert result.records[0].attempts == 2

    def test_retries_and_failures_hit_obs_counters(self, tmp_path):
        grid = clean_grid(3)
        grid[0] = {
            **grid[0],
            "fault": {"mode": "flaky", "fails": 1, "dir": str(tmp_path / "m")},
        }
        grid[2] = {**grid[2], "fault": {"mode": "crash"}}
        with obs.isolated(enabled=True) as session:
            run_campaign(
                "chaos", grid=grid, root_seed=3,
                policy=FaultPolicy(max_attempts=2),
            )
            snapshot = session.collect()
        counters = snapshot["metrics"]["counters"]
        retry_series = counters["campaign_retries_total"]
        assert sum(retry_series.values()) >= 1.0
        failure_series = counters["campaign_failures_total"]
        assert sum(failure_series.values()) == 1.0
        names = [e["name"] for e in snapshot["events"]]
        assert "sample_retry" in names and "sample_failed" in names

    def test_bad_policy_rejected(self):
        with pytest.raises(ValueError):
            FaultPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            FaultPolicy(timeout_s=0.0)
        with pytest.raises(ValueError):
            FaultPolicy(backoff_s=-1.0)
        with pytest.raises(ValueError):
            FaultPolicy(max_failures=-3)


class TestCheckpointAndResume:
    def test_interrupt_keeps_completed_samples_cached(self, tmp_path):
        # A KeyboardInterrupt mid-execute (serial) aborts the campaign,
        # but everything that finished before it is already on disk.
        grid, _ = grid_with_fault(tmp_path, {"mode": "interrupt"}, at=3)
        cache_dir = tmp_path / "cache"
        with pytest.raises(KeyboardInterrupt):
            run_campaign(
                "chaos", grid=grid, root_seed=5, workers=1, cache_dir=cache_dir
            )
        assert ResultCache(cache_dir).count("chaos") == 3

    def test_rerun_after_interrupt_hits_cache_for_completed(self, tmp_path):
        grid, armed = grid_with_fault(tmp_path, {"mode": "interrupt"}, at=3)
        cache_dir = tmp_path / "cache"
        with pytest.raises(KeyboardInterrupt):
            run_campaign(
                "chaos", grid=grid, root_seed=5, workers=1, cache_dir=cache_dir
            )
        armed.unlink()  # "fix" the experiment
        result = run_campaign(
            "chaos", grid=grid, root_seed=5, workers=1, cache_dir=cache_dir
        )
        assert result.manifest["totals"]["cached"] == 3
        assert result.manifest["totals"]["failed"] == 0

    def test_resume_completes_grid_and_matches_clean_fingerprint(self, tmp_path):
        grid, armed = grid_with_fault(tmp_path, {"mode": "crash"})
        cache_dir = tmp_path / "cache"
        broken = run_campaign(
            "chaos", grid=grid, root_seed=9, workers=4, cache_dir=cache_dir
        )
        assert broken.manifest["totals"]["failed"] == 1

        # A plain re-run reuses the quarantined record without re-running.
        replay = run_campaign(
            "chaos", grid=grid, root_seed=9, workers=4, cache_dir=cache_dir
        )
        assert replay.manifest["totals"]["cached"] == 6
        assert replay.records[2].status == "failed"
        assert replay.records[2].cached
        assert replay.fingerprint == broken.fingerprint

        # --resume after the fix re-runs exactly the failed point...
        armed.unlink()
        resumed = run_campaign(
            "chaos", grid=grid, root_seed=9, workers=4, cache_dir=cache_dir,
            resume=True,
        )
        assert resumed.manifest["totals"]["cached"] == 5
        assert resumed.manifest["totals"]["failed"] == 0
        assert all(r.status == "ok" for r in resumed.records)

        # ...and the result is indistinguishable from a never-failed run.
        clean = run_campaign(
            "chaos", grid=grid, root_seed=9, workers=4,
            cache_dir=tmp_path / "clean-cache",
        )
        assert clean.manifest["totals"]["failed"] == 0
        assert resumed.fingerprint == clean.fingerprint
        assert resumed.results == clean.results

    def test_resume_without_cache_runs_everything(self):
        result = run_campaign("chaos", grid=clean_grid(3), root_seed=1,
                              resume=True)
        assert result.manifest["totals"]["cached"] == 0
        assert result.manifest["totals"]["failed"] == 0


class TestMaxFailures:
    def test_abort_early_when_grid_is_broken(self, tmp_path):
        armed = tmp_path / "armed"
        armed.write_text("armed")
        grid = clean_grid(6)
        for i in (2, 3, 4, 5):
            grid[i] = {
                **grid[i],
                "fault": {"mode": "crash", "armed_file": str(armed)},
            }
        cache_dir = tmp_path / "cache"
        with pytest.raises(CampaignAborted) as excinfo:
            run_campaign(
                "chaos", grid=grid, root_seed=2, workers=1,
                cache_dir=cache_dir, policy=FaultPolicy(max_failures=1),
            )
        assert excinfo.value.failures == 2
        # Work finished before the abort is checkpointed (samples 0, 1
        # plus the two quarantined failures), so --resume can finish.
        assert ResultCache(cache_dir).count("chaos") == 4
        armed.unlink()
        resumed = run_campaign(
            "chaos", grid=grid, root_seed=2, workers=1,
            cache_dir=cache_dir, resume=True,
        )
        assert resumed.manifest["totals"]["failed"] == 0
        assert resumed.manifest["totals"]["cached"] == 2

    def test_abort_parallel(self, tmp_path):
        armed = tmp_path / "armed"
        armed.write_text("armed")
        grid = [
            {"i": i, "n": 64, "fault": {"mode": "crash",
                                        "armed_file": str(armed)}}
            for i in range(6)
        ]
        with pytest.raises(CampaignAborted):
            run_campaign(
                "chaos", grid=grid, root_seed=2, workers=3,
                policy=FaultPolicy(max_failures=0),
            )


class TestCampaignCli:
    """Bad campaign flags end in one stderr line and exit code 2."""

    def assert_usage_error(self, capsys, argv: list[str], bad: str) -> None:
        assert main(["campaign", "monte-carlo", "--no-cache", *argv]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1
        assert bad in err

    def test_zero_workers_rejected(self, capsys):
        self.assert_usage_error(capsys, ["--workers", "0"], "--workers")

    @pytest.mark.parametrize(
        "flag, value",
        [("--retries", "-1"), ("--timeout", "0"), ("--backoff", "-1"),
         ("--max-failures", "-3")],
    )
    def test_bad_fault_policy_rejected(self, capsys, flag, value):
        self.assert_usage_error(capsys, [flag, value], value)

    def test_unknown_grid_rejected(self, capsys):
        self.assert_usage_error(capsys, ["--grid", "bogus"], "'bogus'")

    def test_catalogue_lists_every_preset(self, capsys):
        assert main(["campaign", "--list"]) == 0
        out = capsys.readouterr().out
        for experiment in list_experiments():
            assert f"[{', '.join(experiment.presets)}]" in out
