"""The SafeML family of empirical statistical distance measures.

Each function takes two 1-D samples and returns a non-negative scalar
that is zero (up to sampling noise) when the samples come from the same
distribution and grows with distributional shift. The set matches the
measures used in the SafeML publications: Kolmogorov–Smirnov, Kuiper,
Anderson–Darling, Cramér–von Mises, Wasserstein, and the combined
DTS (Distance To Source) measure.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.safeml.ecdf import ecdf_pair


def kolmogorov_smirnov_distance(a: np.ndarray, b: np.ndarray) -> float:
    """KS statistic: sup |F_a - F_b| over the pooled support."""
    _, fa, fb = ecdf_pair(a, b)
    return float(np.max(np.abs(fa - fb)))


def kuiper_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Kuiper statistic: sup(F_a - F_b) + sup(F_b - F_a).

    Unlike KS it is equally sensitive at the distribution tails.
    """
    _, fa, fb = ecdf_pair(a, b)
    return float(np.max(fa - fb) + np.max(fb - fa))


def cramer_von_mises_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Cramér–von Mises criterion (integrated squared gap).

    Computed as the mean of (F_a - F_b)^2 over the pooled sample, a
    scale-free variant adequate for monitoring (monotone in the classical
    statistic for fixed sample sizes).
    """
    _, fa, fb = ecdf_pair(a, b)
    return float(np.mean((fa - fb) ** 2))


def anderson_darling_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Anderson–Darling distance.

    The (F_a - F_b)^2 gap weighted by 1 / (H (1 - H)) where H is the pooled
    ECDF, emphasising tail disagreement; grid points where the weight is
    undefined (H = 0 or 1) are dropped.
    """
    grid, fa, fb = ecdf_pair(a, b)
    n = grid.size
    h = np.arange(1, n + 1) / n
    weight_ok = (h > 0.0) & (h < 1.0)
    gap = (fa - fb) ** 2
    weights = np.zeros_like(h)
    weights[weight_ok] = 1.0 / (h[weight_ok] * (1.0 - h[weight_ok]))
    return float(np.mean(gap * weights))


def wasserstein_distance(a: np.ndarray, b: np.ndarray) -> float:
    """1-Wasserstein (earth mover's) distance between the two ECDFs.

    Integral of |F_a - F_b| dx over the pooled support, in data units.
    """
    grid, fa, fb = ecdf_pair(a, b)
    if grid.size < 2:
        return 0.0
    dx = np.diff(grid)
    return float(np.sum(np.abs(fa - fb)[:-1] * dx))


@lru_cache(maxsize=32)
def _dts_weights(n: int) -> np.ndarray:
    """DTS's AD tail weight 1 / sqrt(H (1 - H)) on a pooled sample of ``n``.

    It depends on ``n`` alone, and a monitor compares samples of a few
    fixed sizes, so each size's vector is built once (read-only).
    """
    h = np.arange(1, n + 1) / n
    weight_ok = (h > 0.0) & (h < 1.0)
    weights = np.zeros_like(h)
    weights[weight_ok] = 1.0 / np.sqrt(h[weight_ok] * (1.0 - h[weight_ok]))
    weights.flags.writeable = False
    return weights


def dts_distance(a: np.ndarray, b: np.ndarray) -> float:
    """DTS: Anderson–Darling-weighted Wasserstein distance.

    The combined measure from the SafeML repository ("distance to source"):
    integrates the squared ECDF gap weighted by the AD tail weight *and*
    the data-unit spacing, capturing both location and tail shift.
    """
    grid, fa, fb = ecdf_pair(a, b)
    if grid.size < 2:
        return 0.0
    dx = np.diff(grid)
    integrand = ((fa - fb) ** 2) * _dts_weights(grid.size)
    return float(np.sum(integrand[:-1] * dx))


ALL_MEASURES = {
    "kolmogorov_smirnov": kolmogorov_smirnov_distance,
    "kuiper": kuiper_distance,
    "cramer_von_mises": cramer_von_mises_distance,
    "anderson_darling": anderson_darling_distance,
    "wasserstein": wasserstein_distance,
    "dts": dts_distance,
}
"""Name -> callable registry used by the monitor and the ablation bench."""
