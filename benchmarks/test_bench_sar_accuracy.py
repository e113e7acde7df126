"""Bench: regenerate the Sec. V-B SAR accuracy result (uncertainty >90% at
high altitude -> descend -> ~75% uncertainty, 99.8% accuracy)."""

from conftest import print_table, run_once

from repro.experiments.sar_accuracy import run_sar_accuracy_experiment


def test_sar_accuracy_altitude_adaptation(benchmark):
    result = run_once(benchmark, run_sar_accuracy_experiment)

    print_table(
        "Sec. V-B — descent profile (ensemble uncertainty per altitude)",
        ["altitude [m]", "SafeML u", "DeepKnowledge u", "ensemble u", "criticality"],
        [
            [f"{s.altitude_m:.0f}", f"{s.safeml_uncertainty:.3f}",
             f"{s.deepknowledge_uncertainty:.3f}",
             f"{s.ensemble_uncertainty:.3f}", s.criticality.value]
            for s in result.descent_profile
        ],
    )
    print_table(
        "SAR accuracy (paper: 99.8% with SESAME; uncertainty ~75% after descent)",
        ["metric", "value", "paper"],
        [
            ["uncertainty at high altitude", f"{result.uncertainty_high:.3f}", ">0.90"],
            ["uncertainty after descent", f"{result.uncertainty_final:.3f}", "~0.75"],
            ["accuracy with SESAME", f"{result.accuracy_with_sesame:.4f}", "0.998"],
            ["accuracy without SESAME", f"{result.accuracy_without_sesame:.4f}", "lower"],
            ["operating altitude [m]", f"{result.final_altitude_m:.0f}", "-"],
        ],
    )
    benchmark.extra_info["accuracy_with"] = result.accuracy_with_sesame
    benchmark.extra_info["uncertainty_final"] = result.uncertainty_final

    assert result.uncertainty_high > 0.9
    assert result.accuracy_with_sesame > result.accuracy_without_sesame
