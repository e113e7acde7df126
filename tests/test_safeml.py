"""Unit tests for SafeML: ECDF, distances, the CDF port, and the monitor."""

import math

import numpy as np
import pytest
from scipy.special import ndtr as scipy_ndtr
from scipy.stats import norm

from repro.safeml.distances import (
    ALL_MEASURES,
    anderson_darling_distance,
    cramer_von_mises_distance,
    dts_distance,
    kolmogorov_smirnov_distance,
    kuiper_distance,
    wasserstein_distance,
)
from repro.safeml.ecdf import Ecdf, ecdf_pair
from repro.safeml.monitor import ConfidenceLevel, SafeMlMonitor
from repro.safeml.ndtr import ndtr


class TestEcdf:
    def test_step_values(self):
        e = Ecdf.from_sample(np.array([1.0, 2.0, 3.0]))
        assert e.evaluate(np.array([0.5]))[0] == 0.0
        assert e.evaluate(np.array([1.0]))[0] == pytest.approx(1 / 3)
        assert e.evaluate(np.array([2.5]))[0] == pytest.approx(2 / 3)
        assert e.evaluate(np.array([3.0]))[0] == 1.0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Ecdf.from_sample(np.array([]))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            Ecdf.from_sample(np.array([1.0, np.nan]))

    def test_callable(self):
        e = Ecdf.from_sample(np.array([1.0, 2.0]))
        assert e(np.array([1.5]))[0] == 0.5

    def test_pair_on_pooled_grid(self):
        grid, fa, fb = ecdf_pair(np.array([1.0, 2.0]), np.array([3.0]))
        assert grid.tolist() == [1.0, 2.0, 3.0]
        assert fa.tolist() == [0.5, 1.0, 1.0]
        assert fb.tolist() == [0.0, 0.0, 1.0]


RNG = np.random.default_rng(42)
SAME_A = RNG.normal(0.0, 1.0, 400)
SAME_B = RNG.normal(0.0, 1.0, 400)
SHIFTED = RNG.normal(2.0, 1.0, 400)


class TestDistanceMeasures:
    @pytest.mark.parametrize("name,fn", sorted(ALL_MEASURES.items()))
    def test_nonnegative(self, name, fn):
        assert fn(SAME_A, SAME_B) >= 0.0

    @pytest.mark.parametrize("name,fn", sorted(ALL_MEASURES.items()))
    def test_symmetric(self, name, fn):
        assert fn(SAME_A, SHIFTED) == pytest.approx(fn(SHIFTED, SAME_A), rel=1e-9)

    @pytest.mark.parametrize("name,fn", sorted(ALL_MEASURES.items()))
    def test_detects_mean_shift(self, name, fn):
        assert fn(SAME_A, SHIFTED) > 3.0 * fn(SAME_A, SAME_B)

    @pytest.mark.parametrize("name,fn", sorted(ALL_MEASURES.items()))
    def test_identical_samples_near_zero(self, name, fn):
        assert fn(SAME_A, SAME_A) == pytest.approx(0.0, abs=1e-12)

    def test_ks_bounded_by_one(self):
        assert kolmogorov_smirnov_distance(SAME_A, SHIFTED + 100.0) <= 1.0

    def test_kuiper_at_least_ks(self):
        assert kuiper_distance(SAME_A, SHIFTED) >= kolmogorov_smirnov_distance(
            SAME_A, SHIFTED
        ) - 1e-12

    def test_wasserstein_equals_mean_shift(self):
        # For a pure location shift the W1 distance is the shift itself.
        a = RNG.normal(0.0, 1.0, 3000)
        b = a + 1.5
        assert wasserstein_distance(a, b) == pytest.approx(1.5, rel=0.02)

    def test_cvm_bounded(self):
        assert 0.0 <= cramer_von_mises_distance(SAME_A, SHIFTED) <= 1.0

    def test_ad_emphasises_tails(self):
        # Tail-only contamination moves AD more than CVM, relatively.
        a = RNG.normal(0.0, 1.0, 500)
        tail = np.concatenate([RNG.normal(0.0, 1.0, 475), RNG.normal(8.0, 0.5, 25)])
        ad_ratio = anderson_darling_distance(a, tail) / (
            anderson_darling_distance(SAME_A, SAME_B) + 1e-12
        )
        cvm_ratio = cramer_von_mises_distance(a, tail) / (
            cramer_von_mises_distance(SAME_A, SAME_B) + 1e-12
        )
        assert ad_ratio > cvm_ratio * 0.5  # AD is at least comparably sensitive

    def test_dts_grows_with_shift_magnitude(self):
        shifts = [0.0, 0.5, 1.0, 2.0]
        values = [dts_distance(SAME_A, SAME_A + s) for s in shifts]
        assert all(b > a for a, b in zip(values, values[1:]))


class TestConfidenceLevel:
    def test_mapping(self):
        assert ConfidenceLevel.from_uncertainty(0.2) is ConfidenceLevel.HIGH
        assert ConfidenceLevel.from_uncertainty(0.8) is ConfidenceLevel.MEDIUM
        assert ConfidenceLevel.from_uncertainty(0.95) is ConfidenceLevel.LOW

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ConfidenceLevel.from_uncertainty(-0.1)


def make_fitted_monitor(window=30, z_scale=3.0, n_features=3, seed=0):
    rng = np.random.default_rng(seed)
    monitor = SafeMlMonitor(
        window_size=window, z_scale=z_scale, rng=np.random.default_rng(seed + 1)
    )
    monitor.fit(rng.normal(0.0, 1.0, size=(400, n_features)))
    return monitor, rng


class TestNdtr:
    """The pure-Python port equals SciPy's Gaussian CDF bit for bit."""

    SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, math.inf, -math.inf]

    def test_seeded_sweep_matches_scipy_exactly(self):
        rng = np.random.default_rng(2024)
        xs = np.concatenate([
            rng.uniform(-40.0, 40.0, 600_000),  # both tails, incl. underflow
            rng.uniform(-8.0, 8.0, 300_000),  # every erf/erfc branch
            rng.uniform(-1.5, 1.5, 100_000),  # the erf branch and its edge
        ])
        ours = np.fromiter(map(ndtr, xs.tolist()), dtype=float, count=xs.size)
        for reference in (scipy_ndtr(xs), norm.cdf(xs)):
            bad = np.flatnonzero(ours != reference)
            assert bad.size == 0, (
                f"{bad.size} mismatches, e.g. x={xs[bad[:3]].tolist()}"
            )

    @pytest.mark.parametrize("x", SPECIAL)
    def test_special_values_match_scipy(self, x):
        assert ndtr(x) == scipy_ndtr(x) == norm.cdf(x)

    def test_nan_maps_to_nan(self):
        assert math.isnan(ndtr(math.nan))


class TestSafeMlMonitor:
    def test_rejects_unknown_measure(self):
        with pytest.raises(ValueError):
            SafeMlMonitor(measure="nope")

    def test_requires_fit_before_observe(self):
        monitor = SafeMlMonitor()
        with pytest.raises(RuntimeError):
            monitor.observe(np.zeros(3))

    def test_requires_samples_before_report(self):
        monitor, _ = make_fitted_monitor()
        with pytest.raises(RuntimeError):
            monitor.report()

    def test_rejects_small_reference(self):
        monitor = SafeMlMonitor(window_size=100)
        with pytest.raises(ValueError):
            monitor.fit(np.zeros((50, 2)))

    def test_rejects_wrong_feature_dim(self):
        monitor, _ = make_fitted_monitor(n_features=3)
        with pytest.raises(ValueError):
            monitor.observe(np.zeros(5))

    def test_in_distribution_is_uncertain_about_half(self):
        monitor, rng = make_fitted_monitor()
        for _ in range(30):
            monitor.observe(rng.normal(0.0, 1.0, 3))
        report = monitor.report()
        assert 0.1 < report.uncertainty < 0.9

    def test_shift_raises_uncertainty(self):
        monitor, rng = make_fitted_monitor()
        for _ in range(30):
            monitor.observe(rng.normal(4.0, 1.0, 3))
        report = monitor.report()
        assert report.uncertainty > 0.95
        assert report.level is ConfidenceLevel.LOW

    def test_window_slides(self):
        monitor, rng = make_fitted_monitor()
        for _ in range(30):
            monitor.observe(rng.normal(4.0, 1.0, 3))
        shifted_u = monitor.report().uncertainty
        for _ in range(30):  # window fully replaced with in-distribution data
            monitor.observe(rng.normal(0.0, 1.0, 3))
        recovered_u = monitor.report().uncertainty
        assert recovered_u < shifted_u

    def test_window_full_flag(self):
        monitor, rng = make_fitted_monitor(window=5)
        assert not monitor.window_full
        for _ in range(5):
            monitor.observe(rng.normal(0.0, 1.0, 3))
        assert monitor.window_full

    def test_confidence_complements_uncertainty(self):
        monitor, rng = make_fitted_monitor()
        monitor.observe(rng.normal(0.0, 1.0, 3))
        report = monitor.report()
        assert report.confidence == pytest.approx(1.0 - report.uncertainty)

    def test_z_scale_softens_response(self):
        sharp, rng = make_fitted_monitor(z_scale=1.0, seed=3)
        soft, _ = make_fitted_monitor(z_scale=50.0, seed=3)
        sample = rng.normal(1.0, 1.0, size=(30, 3))
        for row in sample:
            sharp.observe(row)
            soft.observe(row)
        assert soft.report().uncertainty < sharp.report().uncertainty
