"""Tests for the Fig. 5 Monte Carlo robustness study."""

import pytest

import repro.experiments.fig5_battery as fig5
from repro.experiments.monte_carlo import MONTE_CARLO_CAMPAIGN, result_from_campaign
from repro.harness.campaign import run_campaign


@pytest.fixture(scope="module")
def mc_result():
    # Small grid keeps the test fast while exercising all sweep axes.
    grid = [
        {"fault_time_s": fault_time, "soc_after_fault": 0.40, "seed": 3}
        for fault_time in (250.0, 350.0)
    ]
    return result_from_campaign(run_campaign(MONTE_CARLO_CAMPAIGN, grid=grid))


class TestMonteCarlo:
    def test_sample_count_matches_grid(self, mc_result):
        assert len(mc_result.samples) == 2

    def test_sesame_never_loses(self, mc_result):
        for sample in mc_result.samples:
            assert (
                sample.availability_with >= sample.availability_without - 1e-9
            )

    def test_positive_mean_advantage(self, mc_result):
        assert mc_result.mean_advantage > 0.0

    def test_win_rate_is_high(self, mc_result):
        assert mc_result.win_rate >= 0.5

    def test_scenario_constants_restored(self, mc_result):
        assert fig5.FAULT_TIME_S == 250.0
        assert fig5.SOC_AFTER_FAULT == 0.40

    def test_samples_record_sweep_parameters(self, mc_result):
        fault_times = {s.fault_time_s for s in mc_result.samples}
        assert fault_times == {250.0, 350.0}
