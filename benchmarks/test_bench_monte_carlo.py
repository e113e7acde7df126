"""Ablation bench: the Fig. 5 Monte Carlo robustness sweep."""

from conftest import print_table, run_once

from repro.experiments.monte_carlo import MONTE_CARLO_CAMPAIGN, result_from_campaign
from repro.harness.campaign import run_campaign


def test_fig5_monte_carlo_robustness(benchmark):
    """Does the Fig. 5 conclusion survive scenario perturbation?"""
    grid = [
        {"fault_time_s": fault_time, "soc_after_fault": 0.40, "seed": 3}
        for fault_time in (150.0, 250.0, 350.0)
    ]
    result = result_from_campaign(
        run_once(benchmark, run_campaign, MONTE_CARLO_CAMPAIGN, grid=grid)
    )
    print_table(
        "Fig. 5 Monte Carlo — availability across fault scenarios",
        ["fault t [s]", "SoC after", "seed", "avail with", "avail without", "one pass"],
        [
            [f"{s.fault_time_s:.0f}", f"{s.soc_after_fault:.2f}", s.seed,
             f"{s.availability_with:.3f}", f"{s.availability_without:.3f}",
             s.completed_one_pass]
            for s in result.samples
        ],
    )
    print(
        f"\nmean advantage: {result.mean_advantage:.3f}; "
        f"win rate: {result.win_rate:.2f}; "
        f"one-pass rate: {result.one_pass_rate:.2f}"
    )
    assert result.mean_advantage > 0.0
    assert result.win_rate >= 0.5
