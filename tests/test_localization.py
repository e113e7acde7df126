"""Unit tests for collaborative localization: depth, detection, fusion,
triangulation, landing."""

import math

import numpy as np
import pytest

from repro.geo import EnuFrame, GeoPoint
from repro.localization.collaborative import (
    CollaborativeLocalizer,
    Sighting,
    sighting_to_position,
)
from repro.localization.depth import MonocularDepthEstimator
from repro.localization.detection import DroneDetector
from repro.localization.fusion import ConstantVelocityKalman

FRAME = EnuFrame(origin=GeoPoint(35.0, 33.0, 0.0))


class TestDepth:
    def test_estimate_within_noise(self):
        estimator = MonocularDepthEstimator(rng=np.random.default_rng(0))
        estimates = [estimator.estimate(50.0)[0] for _ in range(200)]
        assert np.mean(estimates) == pytest.approx(50.0, abs=1.0)

    def test_sigma_grows_with_range(self):
        estimator = MonocularDepthEstimator(rng=np.random.default_rng(0))
        _, sigma_near = estimator.estimate(10.0)
        _, sigma_far = estimator.estimate(100.0)
        assert sigma_far > sigma_near

    def test_sigma_floor_at_close_range(self):
        estimator = MonocularDepthEstimator(
            rng=np.random.default_rng(0), floor_sigma_m=0.3
        )
        _, sigma = estimator.estimate(1.0)
        assert sigma == 0.3

    def test_rejects_out_of_envelope(self):
        estimator = MonocularDepthEstimator(rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            estimator.estimate(500.0)
        with pytest.raises(ValueError):
            estimator.estimate(-1.0)

    def test_estimate_always_positive(self):
        estimator = MonocularDepthEstimator(
            rng=np.random.default_rng(0), relative_sigma=0.5
        )
        assert all(estimator.estimate(1.0)[0] > 0.0 for _ in range(100))


class TestDetector:
    def make(self, seed=0):
        return DroneDetector(rng=np.random.default_rng(seed))

    def test_detection_probability_falls_with_range(self):
        detector = self.make()
        assert detector.detection_probability(10.0) > detector.detection_probability(100.0)
        assert detector.detection_probability(200.0) == 0.0

    def test_camera_health_scales_probability(self):
        detector = self.make()
        assert detector.detection_probability(50.0, camera_health=0.5) == pytest.approx(
            0.5 * detector.detection_probability(50.0)
        )

    def test_observation_geometry(self):
        detector = self.make()
        # Target due north, 20 m away, 10 m higher.
        detection = None
        for _ in range(20):
            detection = detector.observe(
                "obs", "tgt", (0.0, 0.0, 10.0), (0.0, 20.0, 20.0), now=0.0
            )
            if detection:
                break
        assert detection is not None
        assert detection.bearing_deg == pytest.approx(0.0, abs=5.0) or detection.bearing_deg > 355.0
        assert detection.elevation_deg == pytest.approx(26.6, abs=5.0)
        assert detection.range_m == pytest.approx(math.sqrt(500), rel=0.15)

    def test_zero_distance_returns_none(self):
        detector = self.make()
        assert detector.observe("a", "b", (0, 0, 0), (0, 0, 0), 0.0) is None

    def test_out_of_range_never_detected(self):
        detector = self.make()
        for _ in range(50):
            assert (
                detector.observe("a", "b", (0, 0, 0), (500.0, 0, 0), 0.0) is None
            )


def make_sighting(observer, target, rng, seed_offset=0):
    detector = DroneDetector(rng=rng)
    detection = None
    while detection is None:
        detection = detector.observe("obs", "uav1", observer, target, now=1.0)
    return Sighting(detection=detection, observer_enu=observer)


class TestTriangulation:
    def test_single_sighting_position_accuracy(self):
        rng = np.random.default_rng(3)
        target = (30.0, 40.0, 20.0)
        errors = []
        for _ in range(50):
            sighting = make_sighting((0.0, 0.0, 15.0), target, rng)
            position, sigma = sighting_to_position(sighting)
            errors.append(math.dist(position, target))
            assert sigma > 0.0
        assert np.mean(errors) < 5.0

    def test_localizer_rejects_wrong_target(self):
        rng = np.random.default_rng(5)
        localizer = CollaborativeLocalizer(target_id="uav9")
        sighting = make_sighting((0.0, 0.0, 15.0), (10.0, 10.0, 15.0), rng)
        with pytest.raises(ValueError):
            localizer.add_sighting(sighting)

    def test_fusion_reduces_uncertainty(self):
        rng = np.random.default_rng(6)
        target = (30.0, 40.0, 20.0)
        observers = [(0.0, 0.0, 15.0), (60.0, 0.0, 15.0), (30.0, 80.0, 15.0)]
        single = CollaborativeLocalizer(target_id="uav1")
        single.add_sighting(make_sighting(observers[0], target, rng))
        single_estimate = single.estimate(1.0)

        multi = CollaborativeLocalizer(target_id="uav1")
        for observer in observers:
            multi.add_sighting(make_sighting(observer, target, rng))
        multi_estimate = multi.estimate(1.0)
        assert multi_estimate.sigma_m < single_estimate.sigma_m
        assert multi_estimate.n_sightings == 3

    def test_estimate_accuracy_with_two_collaborators(self):
        rng = np.random.default_rng(7)
        target = (30.0, 40.0, 20.0)
        errors = []
        for _ in range(30):
            localizer = CollaborativeLocalizer(target_id="uav1")
            for observer in ((10.0, 20.0, 15.0), (50.0, 60.0, 18.0)):
                localizer.add_sighting(make_sighting(observer, target, rng))
            estimate = localizer.estimate(1.0)
            errors.append(math.dist(estimate.enu, target))
        assert np.mean(errors) < 2.0

    def test_stale_sightings_expire(self):
        rng = np.random.default_rng(8)
        localizer = CollaborativeLocalizer(target_id="uav1", max_age_s=2.0)
        localizer.add_sighting(make_sighting((0.0, 0.0, 15.0), (10.0, 10.0, 15.0), rng))
        assert localizer.estimate(1.5) is not None
        assert localizer.estimate(10.0) is None

    def test_no_sightings_returns_none(self):
        localizer = CollaborativeLocalizer(target_id="uav1")
        assert localizer.estimate(0.0) is None
        assert localizer.latest is None


class TestKalman:
    def test_requires_initialisation(self):
        kf = ConstantVelocityKalman()
        with pytest.raises(RuntimeError):
            kf.predict(1.0)
        with pytest.raises(RuntimeError):
            _ = kf.position

    def test_first_update_initialises(self):
        kf = ConstantVelocityKalman()
        kf.update((1.0, 2.0, 3.0), sigma_m=0.5, now=0.0)
        assert kf.position == pytest.approx((1.0, 2.0, 3.0))

    def test_tracks_constant_velocity_target(self):
        kf = ConstantVelocityKalman()
        rng = np.random.default_rng(9)
        errors = []
        for k in range(80):
            t = k * 0.5
            truth = (2.0 * t, 1.0 * t, 10.0)
            meas = tuple(p + rng.normal(0.0, 0.5) for p in truth)
            kf.update(meas, sigma_m=0.5, now=t)
            if k > 20:
                errors.append(math.dist(kf.position, truth))
        assert np.mean(errors) < 0.7

    def test_smoothing_beats_raw_measurements(self):
        kf = ConstantVelocityKalman()
        rng = np.random.default_rng(10)
        kf_errors, raw_errors = [], []
        for k in range(100):
            t = k * 0.5
            truth = (3.0 * t, 0.0, 10.0)
            meas = tuple(p + rng.normal(0.0, 1.0) for p in truth)
            kf.update(meas, sigma_m=1.0, now=t)
            if k > 30:
                kf_errors.append(math.dist(kf.position, truth))
                raw_errors.append(math.dist(meas, truth))
        assert np.mean(kf_errors) < np.mean(raw_errors)

    def test_prediction_bridges_gaps(self):
        kf = ConstantVelocityKalman()
        for k in range(40):
            t = k * 0.5
            kf.update((2.0 * t, 0.0, 10.0), sigma_m=0.3, now=t)
        kf.predict(25.0)  # 5 s gap
        assert kf.position[0] == pytest.approx(50.0, abs=2.0)

    def test_rejects_time_reversal(self):
        kf = ConstantVelocityKalman()
        kf.update((0.0, 0.0, 0.0), sigma_m=1.0, now=5.0)
        with pytest.raises(ValueError):
            kf.predict(1.0)

    def test_sigma_shrinks_with_updates(self):
        kf = ConstantVelocityKalman()
        kf.update((0.0, 0.0, 0.0), sigma_m=2.0, now=0.0)
        initial = np.trace(kf.covariance[:3, :3])
        for k in range(1, 20):
            kf.update((0.0, 0.0, 0.0), sigma_m=2.0, now=float(k))
        assert np.trace(kf.covariance[:3, :3]) < initial
