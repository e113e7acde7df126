"""Ablation bench: the Fig. 5 Monte Carlo robustness sweep."""

from conftest import print_table, run_once

from repro.experiments.monte_carlo import run_monte_carlo_fig5


def test_fig5_monte_carlo_robustness(benchmark):
    """Does the Fig. 5 conclusion survive scenario perturbation?"""
    result = run_once(
        benchmark,
        run_monte_carlo_fig5,
        fault_times=(150.0, 250.0, 350.0),
        soc_levels=(0.40,),
        seeds=(3,),
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
