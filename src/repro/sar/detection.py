"""Altitude-dependent person detection model.

Substitute for the tiny YOLOv4 person detector: what the Sec. V-B
experiment needs is (a) detection accuracy that degrades with altitude —
people shrink to few-pixel blobs — and (b) camera-frame *features* whose
distribution shifts with altitude relative to the training distribution,
which is exactly the signal SafeML and DeepKnowledge monitor.

The feature model emits one 4-vector per frame: apparent person scale,
scene texture energy, contrast, and motion blur. Training references are
captured at the nominal survey altitude; flying higher shifts scale and
contrast downward and blur upward, which the statistical monitors convert
into the paper's uncertainty levels (>90% high, ~75% after descending).

Accuracy calibration: 99.8% at the low operating altitude (paper's
headline), degrading smoothly with altitude.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TRAINING_ALTITUDE_M = 20.0
"""Altitude band at which the detector's training data was captured."""


def detection_accuracy(altitude_m: float) -> float:
    """Probability a person inside the swath is correctly detected.

    99.8% at the 20 m training altitude, falling quadratically with
    altitude (apparent-area scaling) toward ~97% at 60 m.
    """
    if altitude_m <= 0.0:
        raise ValueError("altitude must be positive")
    excess = max(0.0, altitude_m - TRAINING_ALTITUDE_M)
    return max(0.5, 0.998 - 2.0e-5 * excess**2)


def feature_means(altitude_m: float) -> np.ndarray:
    """Mean camera-frame feature vector as a function of altitude.

    Features: [apparent_scale, texture_energy, contrast, motion_blur].
    """
    scale = TRAINING_ALTITUDE_M / altitude_m
    return np.array(
        [
            scale,  # apparent person scale shrinks with altitude
            0.8 + 0.1 * scale,  # ground texture energy
            0.7 * scale + 0.2,  # contrast against background
            0.1 / scale,  # blur grows as objects shrink
        ]
    )


FEATURE_STD = np.array([0.08, 0.06, 0.07, 0.03])
"""Per-frame feature noise (same at all altitudes)."""


@dataclass(frozen=True)
class DetectionOutcome:
    """Result of one detection attempt against a ground-truth person."""

    person_id: str
    detected: bool
    altitude_m: float
    stamp: float


@dataclass
class DetectionModel:
    """Stochastic detector + feature generator bound to one RNG."""

    rng: np.random.Generator

    def sample_features(self, altitude_m: float, n_frames: int = 1) -> np.ndarray:
        """Camera feature vectors for ``n_frames`` at ``altitude_m``."""
        means = feature_means(altitude_m)
        return self.rng.normal(
            means, FEATURE_STD, size=(n_frames, means.size)
        )

    def training_reference(self, n_frames: int = 400) -> np.ndarray:
        """Feature sample representative of the training set."""
        return self.sample_features(TRAINING_ALTITUDE_M, n_frames)

    def attempt(
        self, person_id: str, altitude_m: float, stamp: float
    ) -> DetectionOutcome:
        """One detection attempt on a person inside the camera swath."""
        p = detection_accuracy(altitude_m)
        return DetectionOutcome(
            person_id=person_id,
            detected=bool(self.rng.random() < p),
            altitude_m=altitude_m,
            stamp=stamp,
        )

    def trials(self, altitude_m: float, n: int) -> int:
        """Hits in ``n`` detection attempts at ``altitude_m``.

        One ``rng.random(n)`` call: it consumes the same doubles, and so
        gives the same count, as ``n`` calls to :meth:`attempt`.
        """
        p = detection_accuracy(altitude_m)
        return int(np.count_nonzero(self.rng.random(n) < p))
