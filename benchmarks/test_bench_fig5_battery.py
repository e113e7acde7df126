"""Bench: regenerate Fig. 5 (battery-fault probability of failure) and the
availability headline (91% with SESAME vs 80% without, ~11% completion
improvement)."""

from conftest import print_table, run_once

from repro.experiments.fig5_battery import run_fig5_battery_experiment


def test_fig5_probability_of_failure(benchmark):
    result = run_once(benchmark, run_fig5_battery_experiment)

    # The Fig. 5 curve: PoF over time for the SESAME-monitored UAV.
    trace = result.with_sesame
    rows = []
    for target in (100, 200, 250, 300, 350, 400, 450, 500, 510):
        idx = min(range(len(trace.times)), key=lambda i: abs(trace.times[i] - target))
        rows.append(
            [f"{trace.times[idx]:.0f}", f"{trace.pof[idx]:.3f}", f"{trace.soc[idx]:.2f}",
             f"{trace.temp_c[idx]:.0f}", trace.mode[idx]]
        )
    print_table(
        "Fig. 5 — probability of failure (with SESAME)",
        ["t [s]", "PoF", "SoC", "temp [C]", "mode"],
        rows,
    )
    print_table(
        "Availability (paper: 91% vs 80%, ~11% completion improvement)",
        ["metric", "with SESAME", "without"],
        [
            ["availability", f"{result.availability_with:.3f}",
             f"{result.availability_without:.3f}"],
            ["mission complete [s]",
             f"{result.with_sesame.mission_complete_time:.0f}",
             f"{result.without_sesame.mission_complete_time:.0f}"],
            ["available again [s]",
             f"{result.with_sesame.available_again_time:.0f}",
             f"{result.without_sesame.available_again_time:.0f}"],
        ],
    )
    print(
        f"\nPoF threshold 0.9 crossed at "
        f"{result.with_sesame.threshold_crossing_time:.0f} s (paper: ~510 s); "
        f"completion improvement {100 * result.completion_improvement:.1f}%"
    )
    benchmark.extra_info["availability_with"] = result.availability_with
    benchmark.extra_info["availability_without"] = result.availability_without
    benchmark.extra_info["completion_improvement"] = result.completion_improvement

    assert result.availability_with > result.availability_without
    assert result.with_sesame.threshold_crossing_time is not None
