"""Reproduction tests: each paper experiment's shape must hold.

These assert the *qualitative* results the paper reports (who wins, by
roughly what factor, where thresholds fall) rather than exact testbed
numbers — see EXPERIMENTS.md for the measured-vs-paper comparison.
"""

import pytest

from repro.core.uav_network import UavGuarantee
from repro.core.decider import MissionVerdict
from repro.experiments import (
    run_conserts_scenario_matrix,
    run_fig5_battery_experiment,
    run_fig6_spoofing_experiment,
    run_fig7_collaborative_landing,
    run_sar_accuracy_experiment,
)
from repro.experiments.conserts_network import UavCondition, evaluate_fleet
from repro.sinadra.risk import Criticality


@pytest.fixture(scope="module")
def fig5():
    return run_fig5_battery_experiment()


class TestFig5BatteryAvailability:
    def test_pof_negligible_before_fault(self, fig5):
        trace = fig5.with_sesame
        idx = max(i for i, t in enumerate(trace.times) if t < 250.0)
        assert trace.pof[idx] < 0.05

    def test_pof_rises_after_fault(self, fig5):
        trace = fig5.with_sesame
        idx_400 = min(range(len(trace.times)), key=lambda i: abs(trace.times[i] - 400))
        assert trace.pof[idx_400] > 0.3

    def test_soc_collapse_at_fault_time(self, fig5):
        trace = fig5.with_sesame
        before = min(range(len(trace.times)), key=lambda i: abs(trace.times[i] - 249))
        after = min(range(len(trace.times)), key=lambda i: abs(trace.times[i] - 252))
        assert trace.soc[before] == pytest.approx(0.80, abs=0.02)
        assert trace.soc[after] == pytest.approx(0.40, abs=0.02)

    def test_threshold_crossing_near_510s(self, fig5):
        crossing = fig5.with_sesame.threshold_crossing_time
        assert crossing is not None
        assert 460.0 <= crossing <= 580.0

    def test_with_sesame_completes_mission_in_one_pass(self, fig5):
        assert fig5.with_sesame.mission_complete_time is not None
        assert fig5.with_sesame.mission_complete_time == pytest.approx(510.0, abs=30.0)
        assert fig5.with_sesame.abort_time is None  # never aborted mid-mission

    def test_without_sesame_aborts_at_fault(self, fig5):
        assert fig5.without_sesame.abort_time == pytest.approx(250.0, abs=5.0)

    def test_without_sesame_completes_later(self, fig5):
        w = fig5.with_sesame.mission_complete_time
        wo = fig5.without_sesame.mission_complete_time
        assert wo is not None and wo > w + 60.0

    def test_availability_shape_matches_paper(self, fig5):
        # Paper: ~91% with SESAME vs ~80% without.
        assert 0.85 <= fig5.availability_with <= 0.95
        assert 0.72 <= fig5.availability_without <= 0.85
        assert fig5.availability_improvement >= 0.05

    def test_completion_improvement_positive(self, fig5):
        # Paper reports an 11% improvement in mission completion time.
        assert 0.04 <= fig5.completion_improvement <= 0.25

    def test_pof_curve_monotone_after_fault(self, fig5):
        trace = fig5.with_sesame
        post = [p for t, p in zip(trace.times, trace.pof) if t >= 250.0]
        assert all(b >= a - 1e-12 for a, b in zip(post, post[1:]))

    def test_summary_rows_structure(self, fig5):
        rows = fig5.summary_rows()
        assert [r[0] for r in rows] == [
            "availability",
            "time_until_available_s",
            "mission_complete_s",
        ]


@pytest.fixture(scope="module")
def sar():
    return run_sar_accuracy_experiment()


class TestSarAccuracy:
    def test_high_altitude_uncertainty_exceeds_90(self, sar):
        assert sar.uncertainty_high > 0.90

    def test_descent_converges_to_75(self, sar):
        # Paper: "the SAR uncertainty decreases to approximately 75%".
        assert 0.60 <= sar.uncertainty_final <= 0.90

    def test_final_accuracy_matches_998(self, sar):
        assert sar.accuracy_with_sesame == pytest.approx(0.998, abs=0.004)

    def test_without_sesame_accuracy_lower(self, sar):
        assert sar.accuracy_without_sesame < sar.accuracy_with_sesame

    def test_descent_stops_above_training_altitude(self, sar):
        assert sar.final_altitude_m >= 20.0
        assert sar.final_altitude_m < 40.0

    def test_uncertainty_profile_monotone_decreasing(self, sar):
        series = [s.ensemble_uncertainty for s in sar.descent_profile]
        assert all(b <= a + 0.05 for a, b in zip(series, series[1:]))

    def test_sinadra_criticality_high_at_start(self, sar):
        assert sar.descent_profile[0].criticality is Criticality.HIGH

    def test_classifier_degrades_at_altitude(self, sar):
        assert sar.classifier_accuracy_high < sar.classifier_accuracy_low

    def test_dk_coverage_reasonable(self, sar):
        assert 0.2 <= sar.dk_coverage_score <= 1.0


class TestSarAccuracyBitExact:
    """Sec. V-B's outputs at the default seed, bit for bit.

    The tolerance checks above pass for any close approximation of the
    Gaussian CDF; these fail if its last bits change (for instance with
    ``0.5 * math.erfc(-x / sqrt(2))`` in place of ``ndtr``). The
    DeepKnowledge and accuracy pins fail if the classifier's training or
    the detection trials stop reproducing their arithmetic and RNG draws.
    """

    SAFEML_UNCERTAINTY_HEX = [
        "0x1.ffffff5d1cf83p-1",
        "0x1.ffffcb4d0896cp-1",
        "0x1.ff8f8974df8a0p-1",
        "0x1.eb7a2d6332e08p-1",
        "0x1.7dae88eac33cep-1",
    ]
    UNCERTAINTY_HIGH_HEX = "0x1.ffffff5d1cf83p-1"
    UNCERTAINTY_FINAL_HEX = "0x1.7dae88eac33cep-1"

    def test_descent_profile_safeml_uncertainty(self, sar):
        measured = [s.safeml_uncertainty.hex() for s in sar.descent_profile]
        assert measured == self.SAFEML_UNCERTAINTY_HEX

    def test_uncertainty_high_and_final(self, sar):
        assert sar.uncertainty_high.hex() == self.UNCERTAINTY_HIGH_HEX
        assert sar.uncertainty_final.hex() == self.UNCERTAINTY_FINAL_HEX

    DEEPKNOWLEDGE_UNCERTAINTY_HEX = [
        "0x1.10d041260db91p-3",
        "0x1.ed36694d39a1cp-4",
        "0x1.e3118c812509cp-4",
        "0x1.6013cec1aae93p-4",
        "0x1.e45e13001ceacp-5",
    ]
    ENSEMBLE_UNCERTAINTY_HEX = [
        "0x1.ffffff5d1cf83p-1",
        "0x1.ffffcb4d0896cp-1",
        "0x1.ff8f8974df8a0p-1",
        "0x1.eb7a2d6332e08p-1",
        "0x1.7dae88eac33cep-1",
    ]
    SCALARS_HEX = {
        "dk_coverage_score": "0x1.f49f49f49f49fp-1",
        "classifier_accuracy_low": "0x1.0000000000000p+0",
        "classifier_accuracy_high": "0x1.e4b17e4b17e4bp-1",
        "accuracy_with_sesame": "0x1.ff3b645a1cac1p-1",
        "accuracy_without_sesame": "0x1.fbe76c8b43958p-1",
        "final_altitude_m": "0x1.8000000000000p+4",
    }

    def test_descent_profile_deepknowledge_and_ensemble(self, sar):
        profile = sar.descent_profile
        assert [s.deepknowledge_uncertainty.hex() for s in profile] == (
            self.DEEPKNOWLEDGE_UNCERTAINTY_HEX
        )
        assert [s.ensemble_uncertainty.hex() for s in profile] == (
            self.ENSEMBLE_UNCERTAINTY_HEX
        )

    def test_coverage_accuracy_and_final_altitude(self, sar):
        measured = {name: getattr(sar, name).hex() for name in self.SCALARS_HEX}
        assert measured == self.SCALARS_HEX


@pytest.fixture(scope="module")
def fig6():
    return run_fig6_spoofing_experiment()


class TestFig6Spoofing:
    def test_trajectory_deviates_substantially(self, fig6):
        # The spoof ramps to 60 m; the physical deviation should approach it.
        assert fig6.max_deviation_m > 30.0

    def test_no_deviation_before_attack(self, fig6):
        pre_attack = [
            d for t, d in zip(fig6.times, fig6.deviation_m) if t < fig6.attack_start_s
        ]
        assert max(pre_attack) < 3.0

    def test_security_eddi_detects_immediately(self, fig6):
        # Paper: "spoofing attack was detected immediately by the SecurityEDDI".
        assert fig6.eddi_latency_s is not None
        assert fig6.eddi_latency_s <= 2.0

    def test_sensor_crosscheck_detects_within_seconds(self, fig6):
        assert fig6.sensor_latency_s is not None
        assert fig6.sensor_latency_s <= 20.0

    def test_attack_path_reaches_root(self, fig6):
        assert "manipulate_mapping" in fig6.attack_path

    def test_ids_raised_alerts(self, fig6):
        assert fig6.ids_alert_count > 0


@pytest.fixture(scope="module")
def fig7():
    return run_fig7_collaborative_landing()


class TestFig7CollaborativeLanding:
    def test_uav_lands(self, fig7):
        assert fig7.cl_report.landed

    def test_high_precision_landing(self, fig7):
        # Paper: safe landing "in a high precision location" without GPS.
        assert fig7.cl_report.final_error_m < 3.0

    def test_cl_beats_dead_reckoning_baseline(self, fig7):
        assert fig7.cl_report.final_error_m < fig7.baseline_error_m / 2.0

    def test_cl_estimates_are_submeter_scale(self, fig7):
        assert fig7.mean_estimate_error_m < 3.0
        assert fig7.cl_report.mean_cl_sigma_m < 0.75  # ConSert accuracy bound

    def test_continuous_sightings(self, fig7):
        assert fig7.n_sightings >= 20

    def test_landing_reasonably_fast(self, fig7):
        assert fig7.cl_report.duration_s < 200.0


class TestConsertScenarioMatrix:
    def test_matrix_covers_24_scenarios(self):
        results = run_conserts_scenario_matrix()
        assert len(results) == 24

    def test_healthy_fleet_always_as_planned(self):
        result = evaluate_fleet([UavCondition()] * 3)
        assert result.verdict is MissionVerdict.AS_PLANNED

    def test_degraded_uav_never_blocks_healthy_peers(self):
        for result in run_conserts_scenario_matrix():
            assert result.guarantees[1] is UavGuarantee.CONTINUE_MISSION_EXTRA
            assert result.guarantees[2] is UavGuarantee.CONTINUE_MISSION_EXTRA

    def test_single_failure_never_cancels_mission(self):
        # With two healthy takeover-capable UAVs, one degraded UAV can
        # always be compensated.
        for result in run_conserts_scenario_matrix():
            assert result.verdict in (
                MissionVerdict.AS_PLANNED,
                MissionVerdict.REDISTRIBUTE,
            )

    def test_low_reliability_drops_uav(self):
        result = evaluate_fleet(
            [UavCondition(reliability="low"), UavCondition(), UavCondition()]
        )
        assert result.guarantees[0] is UavGuarantee.RETURN_TO_BASE
        assert result.verdict is MissionVerdict.REDISTRIBUTE

    def test_attack_without_neighbors_degrades_navigation(self):
        result = evaluate_fleet(
            [
                UavCondition(attack=True, neighbors=False),
                UavCondition(),
                UavCondition(),
            ]
        )
        assert result.navigation[0] in ("assistant_navigation", "vision_navigation")
