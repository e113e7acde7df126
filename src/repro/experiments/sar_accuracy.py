"""Sec. V-B — SAR accuracy via uncertainty-aware altitude adaptation.

Scenario: the UAV starts scanning at a high altitude where "the
uncertainty levels from the output of SafeML, DeepKnowledge, and SINADRA
exceed 90%"; ConSerts command a descent; "upon descending, the SAR
uncertainty decreases to approximately 75%, which increases the
algorithm's accuracy to 99.8%". Without SESAME the uncertainty is never
consulted and the UAV keeps scanning from high altitude.

The driver wires the real monitors end-to-end: SafeML watches the camera
feature stream against its training reference; DeepKnowledge supervises a
trained NumPy person-classifier's activation traces; SINADRA turns the
combined uncertainty into a missed-person criticality that justifies the
re-scan/descend decision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.deepknowledge.knowledge import DeepKnowledgeAnalyzer
from repro.deepknowledge.network import FeedForwardNetwork, TrainConfig
from repro.safeml.monitor import SafeMlMonitor
from repro.sar.detection import (
    DetectionModel,
    TRAINING_ALTITUDE_M,
    feature_means,
    FEATURE_STD,
)
from repro.sinadra.risk import Criticality, SarRiskModel, SituationInputs
from repro.sinadra.situation import altitude_band

HIGH_ALTITUDE_M = 40.0
DESCENT_STEP_M = 4.0
MIN_ALTITUDE_M = TRAINING_ALTITUDE_M
UNCERTAINTY_THRESHOLD = 0.90


@dataclass(frozen=True)
class AltitudeSample:
    """Monitor outputs at one altitude during the descent."""

    altitude_m: float
    safeml_uncertainty: float
    deepknowledge_uncertainty: float
    ensemble_uncertainty: float
    criticality: Criticality


@dataclass(frozen=True)
class SarAccuracyResult:
    """Paper Sec. V-B payload."""

    descent_profile: list[AltitudeSample]
    final_altitude_m: float
    uncertainty_high: float
    uncertainty_final: float
    accuracy_with_sesame: float
    accuracy_without_sesame: float
    dk_coverage_score: float
    classifier_accuracy_low: float
    classifier_accuracy_high: float


def make_person_dataset(
    altitude_m: float, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Synthetic person-presence classification data at one altitude.

    Inputs: 4 frame features + 2 person-cue channels whose signal strength
    scales with apparent person size (shrinks with altitude); labels:
    person present in frame.
    """
    labels = rng.integers(0, 2, size=n)
    frames = rng.normal(feature_means(altitude_m), FEATURE_STD, size=(n, 4))
    scale = TRAINING_ALTITUDE_M / altitude_m
    cue_strength = labels * scale
    cues = np.column_stack(
        [
            cue_strength + rng.normal(0.0, 0.18, size=n),
            cue_strength * 0.8 + rng.normal(0.0, 0.18, size=n),
        ]
    )
    return np.column_stack([frames, cues]), labels


def _ensemble(safeml_u: float, dk_u: float) -> float:
    """Combined perception uncertainty from the two monitors.

    The monitors watch complementary failure modes (input shift vs
    exercised-abstraction shift); the ensemble takes the worst case.
    """
    return max(safeml_u, dk_u)


def run_sar_accuracy_experiment(
    seed: int = 5,
    high_altitude_m: float = HIGH_ALTITUDE_M,
    window: int = 40,
    n_eval: int = 4000,
) -> SarAccuracyResult:
    """Run the descent policy and both accuracy evaluations."""
    rng = np.random.default_rng(seed)
    detector = DetectionModel(rng=rng)

    # --- design time: train classifier, fit both monitors ----------------
    x_train, y_train = make_person_dataset(TRAINING_ALTITUDE_M, 1500, rng)
    network = FeedForwardNetwork([6, 24, 12, 2], rng=np.random.default_rng(seed + 1))
    network.train(x_train, y_train, TrainConfig(epochs=40))

    x_shift, _ = make_person_dataset(TRAINING_ALTITUDE_M * 1.25, 600, rng)
    analyzer = DeepKnowledgeAnalyzer(network=network)
    analyzer.fit(x_train, x_shift)
    coverage = analyzer.coverage(x_train)

    safeml = SafeMlMonitor(
        window_size=window, z_scale=65.0, rng=np.random.default_rng(seed + 2)
    )
    safeml.fit(detector.training_reference(600))

    risk_model = SarRiskModel()

    # --- runtime: descend until the ensemble uncertainty is acceptable ---
    def sample_at(altitude: float) -> AltitudeSample:
        frames = detector.sample_features(altitude, n_frames=window)
        for frame in frames:
            safeml.observe(frame)
        safeml_u = safeml.report().uncertainty
        x_rt, _ = make_person_dataset(altitude, 300, rng)
        dk_u = analyzer.uncertainty(x_rt)
        ensemble = _ensemble(safeml_u, dk_u)
        risk = risk_model.assess(
            SituationInputs(
                detection_uncertainty=ensemble,
                altitude_band=altitude_band(altitude),
                visibility="good",
                occupancy_prior=0.3,
            )
        )
        return AltitudeSample(
            altitude_m=altitude,
            safeml_uncertainty=safeml_u,
            deepknowledge_uncertainty=dk_u,
            ensemble_uncertainty=ensemble,
            criticality=risk.criticality,
        )

    profile: list[AltitudeSample] = []
    altitude = high_altitude_m
    sample = sample_at(altitude)
    profile.append(sample)
    while (
        sample.ensemble_uncertainty > UNCERTAINTY_THRESHOLD
        and altitude > MIN_ALTITUDE_M
    ):
        altitude = max(MIN_ALTITUDE_M, altitude - DESCENT_STEP_M)
        sample = sample_at(altitude)
        profile.append(sample)

    # --- accuracy evaluation at the two operating points ------------------
    def measured_accuracy(alt: float) -> float:
        return detector.trials(alt, n_eval) / n_eval

    accuracy_with = measured_accuracy(altitude)
    accuracy_without = measured_accuracy(high_altitude_m)

    x_low, y_low = make_person_dataset(TRAINING_ALTITUDE_M, 1200, rng)
    x_high, y_high = make_person_dataset(high_altitude_m, 1200, rng)

    return SarAccuracyResult(
        descent_profile=profile,
        final_altitude_m=altitude,
        uncertainty_high=profile[0].ensemble_uncertainty,
        uncertainty_final=profile[-1].ensemble_uncertainty,
        accuracy_with_sesame=accuracy_with,
        accuracy_without_sesame=accuracy_without,
        dk_coverage_score=coverage.score,
        classifier_accuracy_low=network.accuracy(x_low, y_low),
        classifier_accuracy_high=network.accuracy(x_high, y_high),
    )

