"""Sec. V-B scenario: uncertainty-aware altitude adaptation for SAR accuracy.

Shows the SafeML + DeepKnowledge + SINADRA ensemble driving the descend
decision: scanning from 40 m the ensemble uncertainty exceeds the 90%
threshold, ConSerts command a descent, and the uncertainty settles near
75% where detection accuracy reaches ~99.8%.

Run:  python examples/sar_accuracy_adaptation.py
"""

from repro.experiments.sar_accuracy import run_sar_accuracy_experiment


def main() -> None:
    result = run_sar_accuracy_experiment()

    print("descent profile (ensemble uncertainty per altitude):")
    print(f"{'altitude':>9} {'SafeML':>8} {'DeepKnow':>9} {'ensemble':>9} {'criticality':>12}")
    for sample in result.descent_profile:
        print(
            f"{sample.altitude_m:>8.0f}m "
            f"{sample.safeml_uncertainty:>8.3f} "
            f"{sample.deepknowledge_uncertainty:>9.3f} "
            f"{sample.ensemble_uncertainty:>9.3f} "
            f"{sample.criticality.value:>12}"
        )
    print()
    print(f"uncertainty at high altitude:  {100 * result.uncertainty_high:.1f}%  (paper: >90%)")
    print(f"uncertainty after descent:     {100 * result.uncertainty_final:.1f}%  (paper: ~75%)")
    print(f"operating altitude chosen:     {result.final_altitude_m:.0f} m")
    print()
    print(f"SAR accuracy with SESAME:      {100 * result.accuracy_with_sesame:.2f}%  (paper: 99.8%)")
    print(f"SAR accuracy without SESAME:   {100 * result.accuracy_without_sesame:.2f}%")
    print()
    print(f"DeepKnowledge coverage score:  {result.dk_coverage_score:.3f}")
    print(
        "person classifier accuracy:    "
        f"{100 * result.classifier_accuracy_low:.1f}% at 20 m, "
        f"{100 * result.classifier_accuracy_high:.1f}% at 40 m"
    )


if __name__ == "__main__":
    main()
