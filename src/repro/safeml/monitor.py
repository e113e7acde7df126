"""Sliding-window SafeML runtime monitor.

Fits on the training-time reference features, then watches a sliding
window of runtime features (one vector per camera frame). Each report
compares the window with the reference per feature, normalises the
distance against a bootstrap null (what the distance looks like when the
window *is* drawn from the reference), and maps the result to an
uncertainty in [0, 1]: "the greater the dissimilarity between the input
and the reference images, the lower the confidence in the ML model's
outcome" (Sec. III-A2).
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.safeml.distances import ALL_MEASURES
from repro.safeml.ndtr import ndtr


class ConfidenceLevel(enum.Enum):
    """Discrete confidence vocabulary offered to the ConSert layer."""

    HIGH = "high"
    MEDIUM = "medium"
    LOW = "low"

    @classmethod
    def from_uncertainty(
        cls, uncertainty: float, medium_at: float = 0.75, low_at: float = 0.9
    ) -> "ConfidenceLevel":
        """Map an uncertainty in [0, 1] to a confidence level.

        The defaults follow the paper's Sec. V-B experiment: uncertainty
        above 90% is unacceptable (LOW), ~75% is workable (MEDIUM).
        """
        if not 0.0 <= uncertainty <= 1.0:
            raise ValueError(f"uncertainty out of range: {uncertainty}")
        if uncertainty < medium_at:
            return cls.HIGH
        if uncertainty < low_at:
            return cls.MEDIUM
        return cls.LOW


@dataclass(frozen=True)
class SafeMlReport:
    """One monitor output."""

    stamp: float
    distances: dict[str, float]
    z_score: float
    uncertainty: float
    level: ConfidenceLevel

    @property
    def confidence(self) -> float:
        """1 - uncertainty."""
        return 1.0 - self.uncertainty


@dataclass
class SafeMlMonitor:
    """Per-feature statistical distance monitor with a sliding window.

    Parameters
    ----------
    measure:
        Name from :data:`repro.safeml.distances.ALL_MEASURES` (default the
        combined DTS measure).
    window_size:
        Number of most recent runtime feature vectors compared against the
        reference.
    null_splits:
        Bootstrap resamples used to estimate the null distance
        distribution at fit time.
    z_scale:
        Softness of the z -> uncertainty mapping; the uncertainty is the
        standard normal CDF ``ndtr(z / z_scale)``. Larger values make the
        monitor less twitchy — calibrate against the deployment's tolerable
        shift.
    """

    measure: str = "dts"
    window_size: int = 50
    null_splits: int = 40
    z_scale: float = 3.0
    rng: np.random.Generator = field(default_factory=lambda: np.random.default_rng(7))
    _reference: np.ndarray | None = field(default=None, repr=False)
    _null_mean: np.ndarray | None = field(default=None, repr=False)
    _null_std: np.ndarray | None = field(default=None, repr=False)
    _window: deque = field(default_factory=deque, repr=False)

    def __post_init__(self) -> None:
        if self.measure not in ALL_MEASURES:
            raise ValueError(
                f"unknown measure {self.measure!r}; pick from {sorted(ALL_MEASURES)}"
            )
        self._distance: Callable = ALL_MEASURES[self.measure]

    # ----------------------------------------------------------------- fit
    def fit(self, reference_features: np.ndarray) -> None:
        """Store the reference sample and estimate the null distance level.

        ``reference_features`` is (n_samples, n_features). The null is
        estimated by repeatedly carving window-sized subsamples out of the
        reference and measuring their distance to the remainder.
        """
        ref = np.atleast_2d(np.asarray(reference_features, dtype=float))
        if ref.shape[0] < 2 * self.window_size:
            raise ValueError(
                f"reference needs >= {2 * self.window_size} samples, got {ref.shape[0]}"
            )
        self._reference = ref
        n, d = ref.shape
        means = np.zeros(d)
        stds = np.zeros(d)
        for j in range(d):
            null_distances = []
            for _ in range(self.null_splits):
                idx = self.rng.permutation(n)
                window = ref[idx[: self.window_size], j]
                rest = ref[idx[self.window_size :], j]
                null_distances.append(self._distance(window, rest))
            means[j] = float(np.mean(null_distances))
            stds[j] = float(np.std(null_distances) + 1e-12)
        self._null_mean = means
        self._null_std = stds
        self._window = deque(maxlen=self.window_size)

    @property
    def fitted(self) -> bool:
        """Whether :meth:`fit` has been called."""
        return self._reference is not None

    # -------------------------------------------------------------- runtime
    def observe(self, features: np.ndarray) -> None:
        """Append one runtime feature vector to the sliding window."""
        if not self.fitted:
            raise RuntimeError("call fit() before observe()")
        vec = np.asarray(features, dtype=float).ravel()
        if vec.size != self._reference.shape[1]:
            raise ValueError(
                f"feature vector has {vec.size} dims, reference has "
                f"{self._reference.shape[1]}"
            )
        self._window.append(vec)

    @property
    def window_full(self) -> bool:
        """Whether enough runtime samples have arrived for a stable report."""
        return len(self._window) >= self.window_size

    def report(self, stamp: float = 0.0) -> SafeMlReport:
        """Compare the current window against the reference.

        The per-feature distances are z-scored against the bootstrap null
        and averaged; the uncertainty is the Gaussian CDF of that mean z,
        so "window indistinguishable from training" maps to ~0.5 and large
        shifts saturate toward 1.0.
        """
        if not self._window:
            raise RuntimeError("no runtime samples observed yet")
        window = np.vstack(self._window)
        distances: dict[str, float] = {}
        z_scores = []
        for j in range(self._reference.shape[1]):
            d = self._distance(window[:, j], self._reference[:, j])
            distances[f"feature_{j}"] = d
            z_scores.append((d - self._null_mean[j]) / self._null_std[j])
        z_mean = float(np.mean(z_scores))
        uncertainty = ndtr(z_mean / self.z_scale)
        return SafeMlReport(
            stamp=stamp,
            distances=distances,
            z_score=z_mean,
            uncertainty=uncertainty,
            level=ConfidenceLevel.from_uncertainty(uncertainty),
        )
