"""Joint-distribution runtime monitor (multivariate SafeML).

The per-feature monitor in :mod:`repro.safeml.monitor` watches marginals;
this monitor watches the *joint* camera-feature distribution with a
multivariate two-sample statistic (energy distance by default), catching
correlation-structure shifts the marginal monitor is blind to. Same
runtime shape: fit on the training reference, slide a window over runtime
frames, report an uncertainty calibrated against a bootstrap null.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.safeml.monitor import ConfidenceLevel, SafeMlReport
from repro.safeml.multivariate import energy_distance, mmd_rbf
from repro.safeml.ndtr import ndtr

JOINT_MEASURES: dict[str, Callable] = {
    "energy": energy_distance,
    "mmd": mmd_rbf,
}


@dataclass
class JointShiftMonitor:
    """Sliding-window joint-distribution monitor.

    Parameters mirror :class:`repro.safeml.monitor.SafeMlMonitor`;
    ``measure`` is "energy" or "mmd".
    """

    measure: str = "energy"
    window_size: int = 50
    null_splits: int = 30
    z_scale: float = 3.0
    rng: np.random.Generator = field(default_factory=lambda: np.random.default_rng(13))
    _reference: np.ndarray | None = field(default=None, repr=False)
    _null_mean: float = field(default=0.0, repr=False)
    _null_std: float = field(default=1.0, repr=False)
    _window: deque = field(default_factory=deque, repr=False)

    def __post_init__(self) -> None:
        if self.measure not in JOINT_MEASURES:
            raise ValueError(
                f"unknown joint measure {self.measure!r}; pick from "
                f"{sorted(JOINT_MEASURES)}"
            )
        self._distance = JOINT_MEASURES[self.measure]

    def fit(self, reference_features: np.ndarray) -> None:
        """Store the reference and bootstrap the null distance level."""
        ref = np.atleast_2d(np.asarray(reference_features, dtype=float))
        if ref.shape[0] < 2 * self.window_size:
            raise ValueError(
                f"reference needs >= {2 * self.window_size} samples, got "
                f"{ref.shape[0]}"
            )
        self._reference = ref
        null_distances = []
        n = ref.shape[0]
        for _ in range(self.null_splits):
            idx = self.rng.permutation(n)
            window = ref[idx[: self.window_size]]
            rest = ref[idx[self.window_size :]]
            null_distances.append(self._distance(window, rest))
        self._null_mean = float(np.mean(null_distances))
        self._null_std = float(np.std(null_distances) + 1e-12)
        self._window = deque(maxlen=self.window_size)

    @property
    def fitted(self) -> bool:
        """Whether :meth:`fit` has run."""
        return self._reference is not None

    def observe(self, features: np.ndarray) -> None:
        """Append one runtime feature vector."""
        if not self.fitted:
            raise RuntimeError("call fit() before observe()")
        vec = np.asarray(features, dtype=float).ravel()
        if vec.size != self._reference.shape[1]:
            raise ValueError(
                f"feature vector has {vec.size} dims, reference has "
                f"{self._reference.shape[1]}"
            )
        self._window.append(vec)

    def report(self, stamp: float = 0.0) -> SafeMlReport:
        """Joint-distance report over the current window."""
        if not self._window:
            raise RuntimeError("no runtime samples observed yet")
        window = np.vstack(self._window)
        distance = self._distance(window, self._reference)
        z = (distance - self._null_mean) / self._null_std
        uncertainty = ndtr(z / self.z_scale)
        return SafeMlReport(
            stamp=stamp,
            distances={"joint": distance},
            z_score=z,
            uncertainty=uncertainty,
            level=ConfidenceLevel.from_uncertainty(uncertainty),
        )
