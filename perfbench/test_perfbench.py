"""Self-tests of the benchmark: metric coverage, output checks, seeds.

    python3 -m pytest perfbench -q

The smoke and trace tests drive the real command line on short runs, so
the file takes a few minutes; it is not part of the repository's tier-1
suite.
"""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]
#: A seed no workload was tuned on.
HELD_OUT_SEED = 7_654_321


def cli(name: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name,
         "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def units(result: dict) -> dict[str, str]:
    return {name: metric["unit"] for name, metric in result["metrics"].items()}


def test_spec_matches_the_code():
    assert NAMES == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.E2E_UNITS
    for workload in workloads.WORKLOADS.values():
        assert set(workload.heavy) | set(workload.light) <= set(layers.LAYERS)


@pytest.mark.parametrize("name", NAMES)
def test_smoke_run_emits_every_end_to_end_metric(name):
    result = cli(name, seed=1, trace=0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert units(result) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


@pytest.mark.parametrize("name", NAMES)
def test_traced_runs_emit_every_layer_metric_and_repeat_counts(name):
    first, second = cli(name, seed=2, trace=1), cli(name, seed=2, trace=1)
    for result in (first, second):
        # ``correct`` includes traced outputs == untraced outputs.
        assert result["correct"] and result["failed"] == 0
        assert units(result) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        shares = [m["value"] for k, m in result["metrics"].items() if k.endswith(".share")]
        assert sum(shares) == pytest.approx(100.0)

    def counts(result):
        return {k: m["value"] for k, m in result["metrics"].items() if m["unit"] == "count"}

    assert counts(first) == counts(second)
    assert any(counts(first).values())


def test_each_check_accepts_the_real_output_and_rejects_a_corrupted_one():
    cases = [
        (workloads.run_fig5_battery_experiment, workloads.check_fig5,
         {"availability_with": 0.0}),
        (workloads.run_sar_accuracy_experiment, workloads.check_sec5b,
         {"uncertainty_high": 0.5}),
        (workloads.run_fig6_spoofing_experiment, workloads.check_fig6,
         {"eddi_detection_s": None}),
        (workloads.run_fig7_collaborative_landing, workloads.check_fig7,
         {"baseline_error_m": 0.0}),
    ]
    for driver, check, corruption in cases:
        result = driver()
        assert check(result) == []
        assert check(dataclasses.replace(result, **corruption))
    mission = workloads.run_assurance_scale_point(n_uavs=workloads.FLEET_UAVS, seed=1)
    assert workloads.check_fleet(mission) == []
    assert workloads.check_fleet(dict(mission, final_verdict=None))
    assert workloads.check_planner_record(SimpleNamespace(oracles={"passed": False}))
    assert workloads.check_swarm_record(
        SimpleNamespace(result={"serviced": 3, "orphaned": 1, "detected": 5})
    )


def test_a_corrupted_result_fails_the_run(monkeypatch):
    real = workloads.run_assurance_scale_point

    def corrupted(**kwargs):
        return dict(real(**kwargs), coverage_fraction=0.5)

    monkeypatch.setattr(workloads, "run_assurance_scale_point", corrupted)
    measured = run.measure(workloads.WORKLOADS["fleet-50-assured"], seed=1, seconds=0.0)
    failures = [f for op in measured["ops"] for f in op.failures]
    assert len(failures) == sum(op.calls for op in measured["ops"]) > 0
    assert "coverage 0.5 below 1.0" in failures[0]


@pytest.mark.parametrize("name", NAMES)
def test_held_out_seed_passes(name):
    measured = run.measure(workloads.WORKLOADS[name], seed=HELD_OUT_SEED, seconds=0.0)
    assert [f for op in measured["ops"] for f in op.failures] == []
