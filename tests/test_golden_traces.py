"""Golden-trace regression suite: the paper's headline numbers, pinned.

Every experiment here is a seeded, deterministic simulation, so its
headline metrics are reproducible to the last bit on a given platform.
These tests pin them at the default seeds: a refactor that *silently*
shifts a reported number now fails loudly instead of drifting
EXPERIMENTS.md away from reality.

Exact equality is asserted for discrete outcomes (counts, booleans,
times quantized to the simulation step); floats use a tight relative
tolerance (1e-6) purely to absorb cross-platform libm variance.

If a change is *supposed* to move these numbers (scenario change, model
fix), regenerate the goldens and review the diff like any other code:

    PYTHONPATH=src python tests/test_golden_traces.py

then update EXPERIMENTS.md to match.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_traces.json"
REL = 1e-6


def collect_fleet_trace(engine: str = "vectorized") -> dict:
    """A 10-UAV SAR coverage mission, pinned to the bit.

    Floats are stored as ``float.hex()`` strings, so the comparison is
    exact rather than tolerance-based: the vectorized fleet engine
    promises bit-identical trajectories to the scalar reference, and this
    section (generated vectorized, also checked against a scalar run)
    holds it to that.
    """
    from repro.experiments.common import build_three_uav_world
    from repro.sar.mission import SarMission

    scenario = build_three_uav_world(
        seed=21, n_persons=8, n_uavs=10, engine=engine
    )
    world = scenario.world
    mission = SarMission(world=world)
    mission.assign_paths()
    metrics = mission.run(max_time_s=400.0)
    return {
        "positions": {
            uav_id: [c.hex() for c in uav.dynamics.position]
            for uav_id, uav in world.uavs.items()
        },
        "soc": {
            uav_id: uav.battery.soc.hex() for uav_id, uav in world.uavs.items()
        },
        "temp_c": {
            uav_id: uav.battery.temp_c.hex()
            for uav_id, uav in world.uavs.items()
        },
        "modes": {uav_id: uav.mode.name for uav_id, uav in world.uavs.items()},
        "detections": [
            [p.person_id, p.detected_by, p.detected_at]
            for p in world.persons
            if p.detected
        ],
        "coverage_fraction": metrics.coverage_fraction,
        "persons_found": metrics.persons_found,
        "persons_total": metrics.persons_total,
        "duration_s": metrics.duration_s,
    }


def collect_traces() -> dict:
    """Run every pinned experiment at its default seed; gather headlines."""
    from repro.experiments.fig5_battery import run_fig5_battery_experiment
    from repro.experiments.fig6_spoofing import run_fig6_spoofing_experiment
    from repro.experiments.fig7_collab_landing import run_fig7_collaborative_landing
    from repro.experiments.sar_accuracy import run_sar_accuracy_experiment
    from repro.experiments.monte_carlo import MONTE_CARLO_CAMPAIGN
    from repro.harness.campaign import run_campaign

    fig5 = run_fig5_battery_experiment(seed=3)
    sar = run_sar_accuracy_experiment(seed=5)
    fig6 = run_fig6_spoofing_experiment(seed=9)
    fig7 = run_fig7_collaborative_landing(seed=13)
    mc = run_campaign(MONTE_CARLO_CAMPAIGN, grid="smoke", root_seed=0)
    return {
        "fig5": {
            "nominal_mission_s": fig5.nominal_mission_s,
            "availability_with": fig5.availability_with,
            "availability_without": fig5.availability_without,
            "completion_improvement": fig5.completion_improvement,
            "threshold_crossing_time": fig5.with_sesame.threshold_crossing_time,
            "mission_complete_time_with": fig5.with_sesame.mission_complete_time,
            "abort_time_without": fig5.without_sesame.abort_time,
        },
        "sar_accuracy": {
            "uncertainty_high": sar.uncertainty_high,
            "uncertainty_final": sar.uncertainty_final,
            "accuracy_with_sesame": sar.accuracy_with_sesame,
            "accuracy_without_sesame": sar.accuracy_without_sesame,
            "final_altitude_m": sar.final_altitude_m,
        },
        "fig6": {
            "max_deviation_m": fig6.max_deviation_m,
            "eddi_latency_s": fig6.eddi_latency_s,
            "sensor_latency_s": fig6.sensor_latency_s,
            "ids_alert_count": fig6.ids_alert_count,
        },
        "fig7": {
            "landed": fig7.cl_report.landed,
            "final_error_m": fig7.cl_report.final_error_m,
            "baseline_error_m": fig7.baseline_error_m,
            "mean_estimate_error_m": fig7.mean_estimate_error_m,
            "n_sightings": fig7.n_sightings,
        },
        "monte_carlo_smoke": {
            "fingerprint": mc.fingerprint,
            "mean_advantage": sum(
                r["availability_with"] - r["availability_without"]
                for r in mc.results
            )
            / len(mc.results),
        },
        "fleet_10_vectorized": collect_fleet_trace("vectorized"),
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    assert GOLDEN_PATH.is_file(), (
        f"{GOLDEN_PATH} missing — regenerate with "
        "`PYTHONPATH=src python tests/test_golden_traces.py`"
    )
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def measured() -> dict:
    return collect_traces()


def _assert_matches(measured: dict, golden: dict, section: str) -> None:
    assert set(measured) == set(golden), f"{section}: metric set changed"
    for name, pinned in golden.items():
        value = measured[name]
        label = f"{section}.{name}"
        if isinstance(pinned, bool) or isinstance(pinned, int):
            assert value == pinned, f"{label}: {value!r} != pinned {pinned!r}"
        elif pinned is None:
            assert value is None, f"{label}: {value!r} != pinned None"
        elif isinstance(pinned, float):
            assert value == pytest.approx(pinned, rel=REL), (
                f"{label}: {value!r} drifted from pinned {pinned!r}"
            )
        else:
            assert value == pinned, f"{label}: {value!r} != pinned {pinned!r}"


class TestGoldenTraces:
    def test_fig5_headlines_pinned(self, measured, golden):
        _assert_matches(measured["fig5"], golden["fig5"], "fig5")

    def test_sar_accuracy_headlines_pinned(self, measured, golden):
        _assert_matches(
            measured["sar_accuracy"], golden["sar_accuracy"], "sar_accuracy"
        )

    def test_fig6_headlines_pinned(self, measured, golden):
        _assert_matches(measured["fig6"], golden["fig6"], "fig6")

    def test_fig7_headlines_pinned(self, measured, golden):
        _assert_matches(measured["fig7"], golden["fig7"], "fig7")

    def test_fleet_trace_pinned(self, measured, golden):
        _assert_matches(
            measured["fleet_10_vectorized"],
            golden["fleet_10_vectorized"],
            "fleet_10_vectorized",
        )

    def test_fleet_trace_reproduced_by_scalar_engine(self, golden):
        # The pinned trace was generated by the vectorized engine; the
        # scalar reference must reproduce it bit for bit (the hex-float
        # encoding leaves no tolerance to hide behind).
        _assert_matches(
            collect_fleet_trace("scalar"),
            golden["fleet_10_vectorized"],
            "fleet_10_vectorized(scalar)",
        )

    def test_monte_carlo_campaign_fingerprint_pinned(self, measured, golden):
        # The campaign fingerprint covers every sample's full result dict,
        # so this one line pins the whole smoke sweep sample-for-sample.
        assert (
            measured["monte_carlo_smoke"]["fingerprint"]
            == golden["monte_carlo_smoke"]["fingerprint"]
        )
        assert measured["monte_carlo_smoke"]["mean_advantage"] == pytest.approx(
            golden["monte_carlo_smoke"]["mean_advantage"], rel=REL
        )


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(collect_traces(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
