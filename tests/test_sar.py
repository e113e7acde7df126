"""Unit tests for SAR coverage planning, detection model, and missions."""

import math

import numpy as np
import pytest

from repro.experiments.common import build_three_uav_world
from repro.sar.coverage import (
    boustrophedon_path,
    estimated_coverage_time_s,
    partition_area,
    path_length_m,
    swath_width_m,
)
from repro.sar.detection import (
    DetectionModel,
    TRAINING_ALTITUDE_M,
    detection_accuracy,
    feature_means,
)
from repro.sar.mission import SarMission


class TestSwath:
    def test_grows_with_altitude(self):
        assert swath_width_m(40.0) > swath_width_m(20.0)

    def test_overlap_shrinks_swath(self):
        assert swath_width_m(20.0, overlap=0.3) < swath_width_m(20.0, overlap=0.0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            swath_width_m(0.0)
        with pytest.raises(ValueError):
            swath_width_m(20.0, overlap=1.0)

    def test_geometry(self):
        # 45-degree half FOV at 10 m, no overlap -> 20 m swath.
        assert swath_width_m(10.0, half_fov_deg=45.0, overlap=0.0) == pytest.approx(20.0)


class TestPartition:
    def test_strips_tile_the_area(self):
        strips = partition_area((300.0, 200.0), 3)
        assert len(strips) == 3
        assert strips[0][0] == (0.0, 100.0)
        assert strips[2][0] == (200.0, 300.0)
        assert all(s[1] == (0.0, 200.0) for s in strips)

    def test_single_uav_gets_everything(self):
        strips = partition_area((300.0, 200.0), 1)
        assert strips == [((0.0, 300.0), (0.0, 200.0))]

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            partition_area((300.0, 200.0), 0)
        with pytest.raises(ValueError):
            partition_area((0.0, 200.0), 2)


class TestBoustrophedon:
    def test_waypoints_at_altitude(self):
        path = boustrophedon_path(((0.0, 100.0), (0.0, 200.0)), 25.0)
        assert all(wp[2] == 25.0 for wp in path)

    def test_alternating_direction(self):
        path = boustrophedon_path(((0.0, 100.0), (0.0, 200.0)), 20.0)
        # First track south->north, second north->south.
        assert path[0][1] == 0.0 and path[1][1] == 200.0
        assert path[2][1] == 200.0 and path[3][1] == 0.0

    def test_tracks_cover_width(self):
        bounds = ((0.0, 100.0), (0.0, 200.0))
        path = boustrophedon_path(bounds, 20.0)
        easts = sorted({wp[0] for wp in path})
        spacing = swath_width_m(20.0)
        assert easts[0] <= spacing  # first track within one swath of edge
        assert easts[-1] >= 100.0 - spacing

    def test_higher_altitude_fewer_tracks(self):
        bounds = ((0.0, 200.0), (0.0, 200.0))
        low = boustrophedon_path(bounds, 15.0)
        high = boustrophedon_path(bounds, 50.0)
        assert len(high) < len(low)

    def test_rejects_degenerate_bounds(self):
        with pytest.raises(ValueError):
            boustrophedon_path(((10.0, 10.0), (0.0, 100.0)), 20.0)

    def test_path_length_and_time(self):
        path = [(0.0, 0.0, 10.0), (0.0, 100.0, 10.0), (10.0, 100.0, 10.0)]
        assert path_length_m(path) == pytest.approx(110.0)
        assert estimated_coverage_time_s(path, 10.0) == pytest.approx(11.0)
        with pytest.raises(ValueError):
            estimated_coverage_time_s(path, 0.0)


class TestDetectionModel:
    def test_accuracy_at_training_altitude(self):
        assert detection_accuracy(TRAINING_ALTITUDE_M) == pytest.approx(0.998)

    def test_accuracy_decreases_with_altitude(self):
        accs = [detection_accuracy(a) for a in (20.0, 30.0, 45.0, 60.0)]
        assert all(b < a for a, b in zip(accs, accs[1:]))

    def test_accuracy_floor(self):
        assert detection_accuracy(500.0) == 0.5

    def test_rejects_nonpositive_altitude(self):
        with pytest.raises(ValueError):
            detection_accuracy(0.0)

    def test_feature_means_shift_with_altitude(self):
        low = feature_means(20.0)
        high = feature_means(60.0)
        assert high[0] < low[0]  # apparent scale shrinks
        assert high[3] > low[3]  # blur grows

    def test_empirical_accuracy_matches_model(self):
        model = DetectionModel(rng=np.random.default_rng(0))
        hits = sum(model.attempt("p", 20.0, 0.0).detected for _ in range(5000))
        assert hits / 5000 == pytest.approx(0.998, abs=0.005)

    @pytest.mark.parametrize("altitude_m", [20.0, 40.0, 120.0])
    @pytest.mark.parametrize("n", [0, 1, 7, 3000])
    def test_trials_match_attempts_and_rng_state(self, altitude_m, n):
        batched = DetectionModel(rng=np.random.default_rng(42))
        one_by_one = DetectionModel(rng=np.random.default_rng(42))
        hits = batched.trials(altitude_m, n)
        assert isinstance(hits, int)
        assert hits == sum(
            one_by_one.attempt(f"p{i}", altitude_m, 0.0).detected for i in range(n)
        )
        assert batched.rng.bit_generator.state == one_by_one.rng.bit_generator.state

    def test_sample_features_shape(self):
        model = DetectionModel(rng=np.random.default_rng(0))
        assert model.sample_features(30.0, n_frames=7).shape == (7, 4)

    def test_false_positive_rate_low(self):
        model = DetectionModel(rng=np.random.default_rng(0))
        fps = sum(model.false_positive(20.0) for _ in range(5000))
        assert fps / 5000 < 0.01


class TestSarMission:
    def make_mission(self, n_persons=6, seed=2):
        scenario = build_three_uav_world(seed=seed, n_persons=n_persons)
        mission = SarMission(world=scenario.world, altitude_m=20.0)
        return mission

    def test_assign_paths_starts_all_uavs(self):
        mission = self.make_mission()
        plans = mission.assign_paths()
        assert set(plans) == {"uav1", "uav2", "uav3"}
        assert all(
            uav.mode.value == "mission" for uav in mission.world.uavs.values()
        )

    def test_mission_finds_most_persons(self):
        mission = self.make_mission(n_persons=6)
        mission.assign_paths()
        metrics = mission.run(max_time_s=1200.0)
        assert metrics.persons_total == 6
        assert metrics.find_rate >= 0.5
        assert metrics.completed_at is not None

    def test_coverage_fraction_grows(self):
        mission = self.make_mission(n_persons=0)
        mission.assign_paths()
        for _ in range(100):
            mission.step()
        early = mission.metrics.coverage_fraction
        for _ in range(400):
            mission.step()
        assert mission.metrics.coverage_fraction >= early
        assert 0.0 < mission.metrics.coverage_fraction <= 1.0

    def test_detection_accuracy_metric_near_model(self):
        mission = self.make_mission(n_persons=10, seed=4)
        mission.assign_paths()
        mission.run(max_time_s=1500.0)
        if mission.metrics.attempts:
            assert mission.metrics.detection_accuracy > 0.9

    def test_altitude_change_preserves_ground_track(self):
        mission = self.make_mission(n_persons=0)
        mission.assign_paths(altitude_m=40.0)
        for _ in range(50):
            mission.step()
        uav = mission.world.uavs["uav1"]
        before = [(wp[0], wp[1]) for wp in uav.plan.waypoints[uav.plan.index :]]
        mission.set_fleet_altitude(20.0)
        after = [(wp[0], wp[1]) for wp in uav.plan.waypoints]
        assert before == after
        assert all(wp[2] == 20.0 for wp in uav.plan.waypoints)

    def test_productive_time_tracked(self):
        mission = self.make_mission(n_persons=0)
        mission.assign_paths()
        for _ in range(20):
            mission.step()
        assert mission.metrics.productive_time_s["uav1"] == pytest.approx(10.0)

    def test_empty_metrics_are_nan(self):
        mission = self.make_mission(n_persons=0)
        assert math.isnan(mission.metrics.detection_accuracy)
        assert math.isnan(mission.metrics.find_rate)
