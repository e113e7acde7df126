"""Same-bits kernels: the SAR swath scan, the spoof-detector epoch, the
grid's point and segment clearance queries, the assurance adapter's
neighbour test and the swarm simulator's motion and link-range updates.

Each kernel is checked against its straightforward predecessor, kept
below verbatim as a reference oracle, on seeded random cases and on the
edge cases where a cheaper formulation could round differently. A
50-UAV assured mission is pinned bit for bit: its visited cells, every
detection attempt, the detections and every spoof detector's verdict
history hash to the same digest as a rerun on the reference oracles,
and on Python 3.11 to a digest recorded before the kernels were
rewritten.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import sys

import numpy as np
import pytest

import repro.experiments.fig6_spoofing as fig6
from repro.core.adapters import _within_range
from repro.core.batch import build_assurance
from repro.experiments.common import build_three_uav_world
from repro.obs import event
from repro.plan.astar import astar_cells, shortcut_path
from repro.plan.grid import OccupancyGrid3D, PlanError, _unit_samples, blocked_legs
from repro.sar.mission import SarMission
from repro.scenario import load_scenario
from repro.security.spoofing import GpsSpoofingDetector, SpoofVerdict
from repro.swarm.sim import SwarmSim
from repro.uav.swarm_kinematics import SwarmKinematics


# ------------------------------------------------------- reference oracles
# The kernels as they were before the same-bits rewrite, code unchanged
# (some comments dropped), so the differential tests below compare
# against them.
def _scan_reference(self, uav, now: float) -> None:
    east, north, alt = uav.dynamics.position
    if alt < 1.0:
        return
    swath = self.camera.swath_width_m(max(alt, 1.0)) / 2.0
    # Every cell whose centre lies inside the camera swath counts as
    # covered, bounded to the search area.
    east_max, north_max = self.world.area_size_m
    reach = int(swath // self.cell_size_m) + 1
    center_col = int(east // self.cell_size_m)
    center_row = int(north // self.cell_size_m)
    for col in range(center_col - reach, center_col + reach + 1):
        for row in range(center_row - reach, center_row + reach + 1):
            cell_east = (col + 0.5) * self.cell_size_m
            cell_north = (row + 0.5) * self.cell_size_m
            if not (0.0 <= cell_east <= east_max and 0.0 <= cell_north <= north_max):
                continue
            if math.hypot(cell_east - east, cell_north - north) <= swath:
                self.metrics.cells_visited.add((col, row))
    for person in self.world.persons:
        dx = person.position[0] - east
        dy = person.position[1] - north
        if math.hypot(dx, dy) > swath:
            continue
        key = (uav.spec.uav_id, person.person_id)
        if now - self._detect_cooldown.get(key, -1e9) < 2.0:
            continue
        self._detect_cooldown[key] = now
        outcome = self.detector.attempt(person.person_id, alt, now)
        self.metrics.attempts.append(outcome)
        if outcome.detected and not person.detected:
            person.detected = True
            person.detected_by = uav.spec.uav_id
            person.detected_at = now
            self.metrics.persons_found += 1
        elif not outcome.detected:
            # Missed while in swath: candidate for SINADRA re-scan.
            self.rescan_queue.append(person.position)


def _update_reference(self, now, gps_enu, imu_velocity, dt) -> SpoofVerdict:
    if (
        self._last_update is not None
        and now - self._last_update > self.max_gap_s
        and not self.spoof_detected
    ):
        self._dr_position = None
        self._last_imu = None
        self._divergences.clear()
        self._hits = 0
    self._last_update = now
    if self._dr_position is None:
        self._dr_position = gps_enu
        self.anchor = gps_enu
        self.anchor_time = now
        self._last_gps = gps_enu
        self._last_imu = imu_velocity
        verdict = SpoofVerdict(
            spoofed=False,
            innovation_m=0.0,
            threshold_m=self.base_threshold_m,
            cumulative_divergence_m=0.0,
            cumulative_threshold_m=self.cumulative_threshold_m,
            consecutive_hits=0,
            stamp=now,
        )
        self.history.append(verdict)
        return verdict

    self._dr_position = tuple(
        p + v * dt for p, v in zip(self._dr_position, imu_velocity)
    )
    innovation = math.dist(gps_enu, self._dr_position)
    age = now - (self.anchor_time if self.anchor_time is not None else now)
    threshold = self.base_threshold_m + self.drift_rate_mps * age

    gps_delta = tuple(g - last for g, last in zip(gps_enu, self._last_gps))
    imu_delta = tuple(v * dt for v in imu_velocity)
    self._divergences.append(
        (now, tuple(g - i for g, i in zip(gps_delta, imu_delta)))
    )
    self._last_gps = gps_enu
    self._last_imu = imu_velocity
    cutoff = now - self.cumulative_window_s
    while self._divergences and self._divergences[0][0] < cutoff:
        self._divergences.popleft()
    cum_vec = [0.0, 0.0, 0.0]
    for _, div in self._divergences:
        for i in range(3):
            cum_vec[i] += div[i]
    cumulative = math.sqrt(sum(c * c for c in cum_vec))

    exceeded = innovation > threshold or cumulative > self.cumulative_threshold_m
    if exceeded:
        self._hits += 1
    else:
        self._hits = 0
        self._dr_position = gps_enu
        self.anchor = gps_enu
        self.anchor_time = now

    if self._hits >= self.hits_to_alarm and not self.spoof_detected:
        self.spoof_detected = True
        self.detection_time = now
        event(
            "warning", "security.spoofing", "gps_spoof_detected",
            sim_time=now,
            innovation_m=round(innovation, 3),
            cumulative_divergence_m=round(cumulative, 3),
        )

    verdict = SpoofVerdict(
        spoofed=self.spoof_detected,
        innovation_m=innovation,
        threshold_m=threshold,
        cumulative_divergence_m=cumulative,
        cumulative_threshold_m=self.cumulative_threshold_m,
        consecutive_hits=self._hits,
        stamp=now,
    )
    self.history.append(verdict)
    return verdict


def _point_indices_reference(self, points):
    rel = (np.asarray(points, dtype=float) - np.asarray(self.origin)) / self.cell_m
    idx = np.floor(rel).astype(int)
    shape = np.asarray(self.shape)
    at_top = (idx >= shape) & (rel <= shape + 1e-9)
    idx = np.where(at_top, shape - 1, idx)
    inside = np.all((idx >= 0) & (idx < shape), axis=-1)
    return idx, inside


def _is_free_reference(self, point) -> bool:
    idx, inside = _point_indices_reference(self, np.asarray(point)[None, :])
    if not inside[0]:
        return True
    i, j, k = idx[0]
    return not bool(self.occupied[i, j, k])


def _points_free_reference(self, points):
    idx, inside = _point_indices_reference(self, points)
    free = np.ones(len(idx), dtype=bool)
    if inside.any():
        clipped = idx[inside]
        free[inside] = ~self.occupied[
            clipped[:, 0], clipped[:, 1], clipped[:, 2]
        ]
    return free


def _segment_free_reference(self, a, b) -> bool:
    a_arr = np.asarray(a, dtype=float)
    b_arr = np.asarray(b, dtype=float)
    length = float(np.linalg.norm(b_arr - a_arr))
    n = max(2, int(math.ceil(length / (0.5 * self.cell_m))) + 1)
    t = np.linspace(0.0, 1.0, n)[:, None]
    samples = a_arr[None, :] * (1.0 - t) + b_arr[None, :] * t
    return bool(_points_free_reference(self, samples).all())


def _shortcut_path_reference(grid, points):
    # The greedy descending loop, checked per segment by the reference
    # segment query above.
    if len(points) <= 2:
        return list(points)
    out = [points[0]]
    i = 0
    while i < len(points) - 1:
        j = len(points) - 1
        while j > i + 1 and not _segment_free_reference(grid, points[i], points[j]):
            j -= 1
        out.append(points[j])
        i = j
    return out


# ------------------------------------------------------------ 50-UAV pin
#: Digest of the seed-3 50-UAV assured mission (see ``_fleet50_digest``),
#: recorded on Python 3.11.
FLEET50_SEED = 3
FLEET50_DIGEST = (
    "2f9ecf557917eb0c0533ea99cec97f78e240362c1615342977cefbebfe3b2766"
)


def _fleet50_run(seed: int) -> tuple[SarMission, object]:
    """The ``run_assurance_scale_point`` loop at N=50, keeping the mission
    and the plane so their state can be hashed."""
    world = build_three_uav_world(seed=seed, n_persons=8, n_uavs=50).world
    mission = SarMission(world=world)
    mission.assign_paths()
    plane = build_assurance(world)
    cycle_every = max(1, int(round(2.0 / world.dt)))
    steps = 0
    while not mission.mission_complete and world.time < 60.0:
        mission.step()
        steps += 1
        if steps % cycle_every == 0:
            plane.step(world.time)
            plane.decide()
    return mission, plane


def _fleet50_digest(mission: SarMission, plane) -> str:
    metrics = mission.metrics
    persons = [
        (p.person_id, p.detected, p.detected_by, p.detected_at)
        for p in mission.world.persons
    ]
    verdicts = [
        (uav_id, plane.spoof_detector(uav_id).history)
        for uav_id in sorted(plane.uav_ids)
    ]
    state = (
        sorted(metrics.cells_visited),
        metrics.attempts,
        metrics.persons_found,
        persons,
        verdicts,
    )
    return hashlib.sha256(repr(state).encode()).hexdigest()


class TestFleet50AssuredPin:
    def test_mission_matches_reference_kernels(self, monkeypatch):
        mission, plane = _fleet50_run(FLEET50_SEED)
        assert plane.engine == "vectorized"
        assert mission.metrics.attempts, "the pin must exercise detection"
        assert all(
            len(plane.spoof_detector(u).history) > 1 for u in plane.uav_ids
        ), "the pin must exercise every spoof detector"
        monkeypatch.setattr(SarMission, "_scan", _scan_reference)
        monkeypatch.setattr(GpsSpoofingDetector, "update", _update_reference)
        oracle, oracle_plane = _fleet50_run(FLEET50_SEED)
        assert _fleet50_digest(mission, plane) == _fleet50_digest(
            oracle, oracle_plane
        )

    # The digest hashes the raw cumulative divergence, which goes through
    # ``sum`` over floats; ``sum`` rounds differently from 3.12 on.
    @pytest.mark.skipif(
        sys.version_info[:2] != (3, 11),
        reason="digest recorded on Python 3.11; other versions round sum() "
        "differently",
    )
    def test_mission_and_spoof_verdicts_are_pinned(self):
        mission, plane = _fleet50_run(FLEET50_SEED)
        assert _fleet50_digest(mission, plane) == FLEET50_DIGEST


# --------------------------------------------------------------- swath scan
class _FixedSwath:
    """A camera stub whose half swath is exactly ``half_m`` at any altitude."""

    def __init__(self, half_m: float) -> None:
        self.half_m = half_m

    def swath_width_m(self, altitude_m: float) -> float:
        return 2.0 * self.half_m


def _scan_pair(area, persons: int = 0, seed: int = 0):
    """Two identical missions: one scans with the kernel, one with the oracle."""
    config = {
        "seed": seed,
        "area_size_m": list(area),
        "persons": persons,
        "uavs": [{"id": "uav1", "base": [0.0, 0.0, 0.0]}],
    }
    return tuple(
        SarMission(world=load_scenario(config).world) for _ in range(2)
    )


def _scan_both(missions, position, now, cell=None, camera=None) -> None:
    kernel, oracle = missions
    for mission in missions:
        if cell is not None:
            mission.cell_size_m = cell
        if camera is not None:
            mission.camera = camera
        mission.world.uavs["uav1"].dynamics.position = position
    kernel._scan(kernel.world.uavs["uav1"], now)
    _scan_reference(oracle, oracle.world.uavs["uav1"], now)


def _assert_scans_agree(missions) -> None:
    kernel, oracle = missions
    # Same members in the same iteration order: same insertion sequence.
    assert list(kernel.metrics.cells_visited) == list(oracle.metrics.cells_visited)
    assert kernel.metrics.attempts == oracle.metrics.attempts
    assert kernel.metrics.persons_found == oracle.metrics.persons_found
    assert kernel.rescan_queue == oracle.rescan_queue
    assert kernel.world.persons == oracle.world.persons
    assert (
        kernel.world.rng.bit_generator.state
        == oracle.world.rng.bit_generator.state
    )


class TestScanMatchesReference:
    def test_random_flights(self):
        rng = np.random.default_rng(20)
        for case in range(40):
            area = tuple(float(v) for v in rng.uniform(30.0, 400.0, 2))
            missions = _scan_pair(area, persons=int(rng.integers(0, 12)), seed=case)
            cell = float(rng.choice([1.0, 2.5, 4.0, 7.3, 10.0]))
            for k in range(25):
                position = (
                    float(rng.uniform(-30.0, area[0] + 30.0)),
                    float(rng.uniform(-30.0, area[1] + 30.0)),
                    float(rng.uniform(0.5, 150.0)),
                )
                _scan_both(missions, position, now=0.7 * k, cell=cell)
            _assert_scans_agree(missions)

    @pytest.mark.parametrize("triple", [(3, 4, 5), (5, 12, 13), (8, 15, 17), (20, 21, 29)])
    @pytest.mark.parametrize("cell", [1.0, 2.0, 10.0])
    def test_cell_centres_on_the_swath_circle(self, triple, cell):
        # The UAV sits on a cell centre, so centre offsets are whole cells
        # and the Pythagorean offsets land exactly on the circle.
        a, b, c = triple
        missions = _scan_pair((200.0 * cell, 200.0 * cell))
        centre = 100.5 * cell
        _scan_both(
            missions, (centre, centre, 30.0), now=0.0,
            cell=cell, camera=_FixedSwath(c * cell),
        )
        _assert_scans_agree(missions)
        for dx, dy in ((a, b), (b, a), (-a, b), (a, -b), (-b, -a), (c, 0)):
            assert (100 + dx, 100 + dy) in missions[0].metrics.cells_visited

    def test_near_circle_cells_fall_into_the_hypot_band(self):
        # Place cell centres within a few ulps of the swath circle, where
        # squared distances and hypot can disagree; the kernel must
        # follow hypot.
        rng = np.random.default_rng(7)
        disagreements = 0
        for case in range(300):
            cell = float(rng.choice([1.0, 3.0, 10.0]))
            half = float(rng.uniform(2.0, 9.0)) * cell
            col, row = 40, 40
            dy_cells = int(rng.integers(0, int(half // cell) + 1))
            dy = dy_cells * cell
            dx = math.sqrt(max(half * half - dy * dy, 0.0))
            dx *= 1.0 + float(rng.integers(-4, 5)) * 2.0**-52
            east = (col + 0.5) * cell - dx
            north = (row + 0.5) * cell - dy
            rx, ry = (col + 0.5) * cell - east, (row + 0.5) * cell - north
            disagreements += (rx * rx + ry * ry <= half * half) != (
                math.hypot(rx, ry) <= half
            )
            missions = _scan_pair((100.0 * cell, 100.0 * cell), seed=case)
            _scan_both(
                missions, (east, north, 30.0), now=0.0,
                cell=cell, camera=_FixedSwath(half),
            )
            _assert_scans_agree(missions)
        assert disagreements > 0, "no case reached the band"

    @pytest.mark.parametrize(
        "position",
        [
            (0.0, 0.0, 20.0),
            (95.0, 55.0, 20.0),  # top corner; edge cells centred on the bound
            (95.0, 0.0, 20.0),
            (-14.0, 30.0, 20.0),  # outside, swath reaching in
            (110.0, 70.0, 20.0),
            (45.0, 25.0, 20.0),
        ],
    )
    def test_area_edges(self, position):
        # 95 x 55 m with 10 m cells: the last column's centre is exactly
        # at east_max, the last row's exactly at north_max.
        missions = _scan_pair((95.0, 55.0), persons=4)
        _scan_both(missions, position, now=1.0)
        _assert_scans_agree(missions)

    @pytest.mark.parametrize("half", [10.0, 20.0, 30.0, 19.999999999, 20.000000001])
    def test_reach_edges(self, half):
        # A half swath at a whole number of cells puts the outermost
        # column of the reach exactly on the circle.
        missions = _scan_pair((300.0, 300.0))
        _scan_both(
            missions, (155.0, 155.0, 30.0), now=0.0, camera=_FixedSwath(half)
        )
        _assert_scans_agree(missions)

    @pytest.mark.parametrize(
        "alt", [0.999, 1.0, math.nextafter(1.0, 2.0), 1.0 + 1e-9, 1.01]
    )
    def test_altitude_just_above_one_metre(self, alt):
        missions = _scan_pair((100.0, 100.0), persons=6)
        for k in range(4):
            _scan_both(missions, (50.0 + 0.3 * k, 50.0, alt), now=3.0 * k, cell=0.5)
        _assert_scans_agree(missions)


# ----------------------------------------------------------- spoof detector
def _replay(stream, **params) -> tuple[GpsSpoofingDetector, GpsSpoofingDetector]:
    """Feed one epoch stream to the kernel and to the oracle."""
    kernel = GpsSpoofingDetector(**params)
    oracle = GpsSpoofingDetector(**params)
    for now, gps, imu, dt in stream:
        got = kernel.update(now, gps, imu, dt)
        want = _update_reference(oracle, now, gps, imu, dt)
        assert got == want
    return kernel, oracle


def _assert_detectors_agree(kernel, oracle) -> None:
    assert kernel.history == oracle.history
    # repr spells every float exactly (and tells 0.0 from -0.0).
    assert repr(kernel.history) == repr(oracle.history)
    assert repr(kernel._dr_position) == repr(oracle._dr_position)
    assert repr(list(kernel._divergences)) == repr(list(oracle._divergences))
    assert (kernel._hits, kernel.spoof_detected, kernel.detection_time) == (
        oracle._hits, oracle.spoof_detected, oracle.detection_time
    )


def _flight(rng, epochs, offset_fn, dt=0.5, skip=lambda now: False, as_numpy=True):
    truth = np.zeros(3)
    velocity = np.array([2.0, -0.5, 0.1])
    for k in range(epochs):
        now = k * dt
        truth = truth + velocity * dt
        gps = truth + offset_fn(now) + rng.normal(0.0, 0.3, 3)
        imu = velocity + rng.normal(0.0, 0.05, 3)
        if skip(now):
            continue
        if as_numpy:
            yield now, tuple(gps), tuple(imu), dt
        else:
            yield now, tuple(gps.tolist()), tuple(imu.tolist()), dt


class TestSpoofDetectorMatchesReference:
    @pytest.mark.parametrize("as_numpy", [True, False])
    def test_random_flights_with_jumps_and_ramps(self, as_numpy):
        rng = np.random.default_rng(6)
        for case in range(12):
            jump_at = float(rng.uniform(5.0, 60.0))
            ramp = float(rng.uniform(0.0, 1.2))
            stream = _flight(
                rng, 240,
                lambda t: np.array([max(0.0, ramp * (t - jump_at)), 0.0, 0.0])
                + (np.array([0.0, 25.0, 0.0]) if case % 3 == 0 and t > jump_at else 0.0),
                as_numpy=as_numpy,
            )
            _assert_detectors_agree(*_replay(stream, hits_to_alarm=int(1 + case % 4)))

    def test_outage_reanchors(self):
        rng = np.random.default_rng(1)
        stream = list(
            _flight(
                rng, 200, lambda t: np.zeros(3),
                skip=lambda now: 20.0 < now < 24.0 or 60.0 < now < 61.5,
            )
        )
        kernel, oracle = _replay(stream)
        _assert_detectors_agree(kernel, oracle)
        # The 4 s gap re-anchored (a fresh zero-innovation verdict); the
        # 1.5 s one did not.
        fresh = [v.stamp for v in kernel.history if v.innovation_m == 0.0]
        assert 24.0 in fresh and 61.5 not in fresh

    def test_window_eviction(self):
        rng = np.random.default_rng(2)
        stream = list(_flight(rng, 400, lambda t: np.zeros(3), dt=0.1))
        kernel, oracle = _replay(stream, cumulative_window_s=3.0)
        _assert_detectors_agree(kernel, oracle)
        # Only the last 3 s of divergences survive the sliding window.
        assert len(kernel._divergences) < 40

    def test_fig6_ramp(self, monkeypatch):
        # Record every epoch the Fig. 6 experiment feeds its detector,
        # then replay the attacked flight through kernel and oracle.
        recorders = []

        class Recording(GpsSpoofingDetector):
            def __init__(self, **params):
                super().__init__(**params)
                self.epochs = []
                recorders.append(self)

            def update(self, now, gps_enu, imu_velocity, dt):
                self.epochs.append((now, gps_enu, imu_velocity, dt))
                return super().update(now, gps_enu, imu_velocity, dt)

        monkeypatch.setattr(fig6, "GpsSpoofingDetector", Recording)
        result = fig6.run_fig6_spoofing_experiment()
        clean, attacked = recorders
        assert attacked.spoof_detected and result.sensor_detection_s is not None
        for recorded in (clean, attacked):
            kernel, oracle = _replay(recorded.epochs)
            _assert_detectors_agree(kernel, oracle)
            assert repr(kernel.history) == repr(recorded.history)


# -------------------------------------------------------- grid queries
def _random_grid(rng) -> OccupancyGrid3D:
    shape = tuple(int(v) for v in rng.integers(2, 12, 3))
    cell = float(rng.choice([0.5, 1.0, 2.0, 3.7, 4.0]))
    origin = tuple(float(v) for v in rng.uniform(-50.0, 50.0, 3))
    occupied = rng.random(shape) < float(rng.uniform(0.0, 0.3))
    return OccupancyGrid3D(origin=origin, cell_m=cell, occupied=occupied)


def _random_point(rng, grid) -> tuple[float, float, float]:
    lo = np.asarray(grid.origin) - 2.0 * grid.cell_m
    hi = np.asarray(grid.origin) + np.asarray(grid.size_m) + 2.0 * grid.cell_m
    return tuple(float(v) for v in rng.uniform(lo, hi))


def _face_points(grid) -> list[tuple[float, float, float]]:
    """Points on cell faces, on the closed top face and just past it."""
    points = []
    o = grid.origin
    c = grid.cell_m
    for i in range(grid.shape[0] + 1):
        for j in (0, grid.shape[1] // 2, grid.shape[1]):
            for k in (0, grid.shape[2]):
                base = (o[0] + i * c, o[1] + j * c + 0.3 * c, o[2] + k * c)
                points.append(base)
                points.append((math.nextafter(base[0], math.inf),) + base[1:])
                points.append((math.nextafter(base[0], -math.inf),) + base[1:])
                points.append(base[:2] + (base[2] + 0.5e-9 * c,))
                points.append(base[:2] + (base[2] + 2e-9,))
    return points


class TestGridQueriesMatchReference:
    def test_unit_samples_match_linspace(self):
        for n in range(2, 4097):
            assert _unit_samples(n).tobytes() == np.linspace(0.0, 1.0, n).tobytes(), n

    def test_random_points_and_faces(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            grid = _random_grid(rng)
            points = [_random_point(rng, grid) for _ in range(40)]
            points += _face_points(grid)
            for p in points:
                assert grid.is_free(p) == _is_free_reference(grid, p), p

    def test_is_free_agrees_with_point_indices_on_faces(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            grid = _random_grid(rng)
            points = _face_points(grid)
            idx, inside = grid.point_indices(np.asarray(points))
            for p, (i, j, k), ok in zip(points, idx, inside):
                assert grid.is_free(p) == (not ok or not grid.occupied[i, j, k]), p

    def test_random_segments(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            grid = _random_grid(rng)
            for _ in range(40):
                a, b = _random_point(rng, grid), _random_point(rng, grid)
                assert grid.segment_free(a, b) == _segment_free_reference(grid, a, b)

    def test_edge_segments(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            grid = _random_grid(rng)
            o, c, size = grid.origin, grid.cell_m, grid.size_m
            top = tuple(oi + si for oi, si in zip(o, size))
            a = _random_point(rng, grid)
            cases = [
                (a, a),  # zero length
                (top, top),
                (o, top),  # corner to corner, both on faces
                (top, (o[0], top[1], top[2])),  # along the top face
                ((o[0] - 5 * c, o[1] - 5 * c, o[2]), (o[0] - 5 * c, top[1] + 5 * c, top[2])),
                ((o[0], o[1], top[2] + c), (top[0], top[1], top[2] + c)),  # above
            ]
            for k in range(1, 12):
                # Lengths at exact multiples of half a cell.
                cases.append((a, (a[0] + k * 0.5 * c, a[1], a[2])))
                cases.append((a, (a[0], a[1] - k * 0.5 * c, a[2])))
            occ = np.argwhere(grid.occupied)
            if len(occ):
                # Graze one occupied voxel: run along its faces and edges.
                i, j, k = occ[0]
                lo = tuple(oi + n * c for oi, n in zip(o, (i, j, k)))
                hi = tuple(v + c for v in lo)
                cases += [
                    ((lo[0] - c, lo[1], lo[2]), (hi[0] + c, lo[1], lo[2])),
                    ((lo[0] - c, hi[1], hi[2]), (hi[0] + c, hi[1], hi[2])),
                    ((lo[0] - c, lo[1] - 1e-9, lo[2]), (hi[0] + c, lo[1] - 1e-9, lo[2])),
                    ((lo[0], lo[1] - c, lo[2]), (hi[0], hi[1] + c, hi[2])),
                ]
            for a_, b_ in cases:
                assert grid.segment_free(a_, b_) == _segment_free_reference(grid, a_, b_), (
                    a_, b_
                )


    def test_segments_free_matches_reference_row_by_row(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            grid = _random_grid(rng)
            starts = [_random_point(rng, grid) for _ in range(40)]
            ends = [_random_point(rng, grid) for _ in range(40)]
            got = grid.segments_free(starts, ends)
            assert got.dtype == bool and got.shape == (40,)
            want = [_segment_free_reference(grid, a, b) for a, b in zip(starts, ends)]
            assert got.tolist() == want

    def test_segments_free_on_edge_segments(self):
        # The same grids and cases as ``test_edge_segments``, in one batch
        # per grid.
        rng = np.random.default_rng(8)
        for _ in range(30):
            grid = _random_grid(rng)
            cases = _edge_segment_cases(rng, grid)
            got = grid.segments_free([a for a, _ in cases], [b for _, b in cases])
            want = [_segment_free_reference(grid, a, b) for a, b in cases]
            assert got.tolist() == want, cases

    def test_segments_free_lengths_on_sample_boundaries(self):
        # Oblique segments a whole number of half cells long, up to the
        # rounding of the endpoints: the sample count turns on the last
        # bits of each length, which must round as the per-segment norm.
        rng = np.random.default_rng(13)
        for _ in range(40):
            grid = _random_grid(rng)
            half = 0.5 * grid.cell_m
            starts, ends = [], []
            for _ in range(100):
                a = np.asarray(_random_point(rng, grid))
                u = rng.normal(size=3)
                u /= np.linalg.norm(u)
                b = a + u * (int(rng.integers(1, 40)) * half)
                starts.append(tuple(a.tolist()))
                ends.append(tuple(b.tolist()))
            got = grid.segments_free(starts, ends)
            want = [_segment_free_reference(grid, a, b) for a, b in zip(starts, ends)]
            assert got.tolist() == want

    def test_segments_free_empty_input(self):
        grid = OccupancyGrid3D.empty((8.0, 8.0, 8.0), 1.0)
        for empty in ([], np.empty((0, 3))):
            out = grid.segments_free(empty, empty)
            assert out.dtype == bool and out.shape == (0,)
        assert blocked_legs(grid, []) == [] and blocked_legs(grid, [(1.0, 1.0, 1.0)]) == []

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("end", ["start", "end"])
    def test_segments_free_non_finite_endpoint_raises(self, bad, end):
        grid = OccupancyGrid3D.empty((8.0, 8.0, 8.0), 1.0)
        starts = [(1.0, 1.0, 1.0)] * 5
        ends = [(6.0, 6.0, 6.0)] * 5
        (starts if end == "start" else ends)[3] = (2.0, bad, 2.0)
        with pytest.raises(PlanError, match="non-finite point"):
            grid.segments_free(starts, ends)

    def test_blocked_legs_matches_reference(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            grid = _random_grid(rng)
            polyline = [_random_point(rng, grid) for _ in range(int(rng.integers(2, 12)))]
            want = [
                i for i, (a, b) in enumerate(zip(polyline, polyline[1:]))
                if not _segment_free_reference(grid, a, b)
            ]
            assert blocked_legs(grid, polyline) == want
            assert grid.path_free(polyline) == (not want)

    def test_shortcut_matches_reference_on_astar_paths(self):
        rng = np.random.default_rng(21)
        for _ in range(60):
            grid = _random_grid(rng)
            free = np.argwhere(~grid.occupied)
            if len(free) < 2:
                continue
            for _ in range(4):
                s, g = (tuple(int(v) for v in free[k]) for k in rng.integers(len(free), size=2))
                cells = astar_cells(grid.occupied, s, g)
                if cells is None:
                    continue
                points = [
                    tuple(float(v) for v in c)
                    for c in grid.cell_centers(np.asarray(cells))
                ]
                assert shortcut_path(grid, points) == _shortcut_path_reference(grid, points)

    def test_shortcut_matches_reference_on_random_polylines(self):
        rng = np.random.default_rng(22)
        for _ in range(60):
            grid = _random_grid(rng)
            points = [_random_point(rng, grid) for _ in range(int(rng.integers(1, 25)))]
            assert shortcut_path(grid, points) == _shortcut_path_reference(grid, points)

    def test_shortcut_two_point_all_free_and_all_blocked(self):
        rng = np.random.default_rng(23)
        empty = OccupancyGrid3D.empty((10.0, 10.0, 10.0), 1.0)
        full = OccupancyGrid3D(
            origin=(0.0, 0.0, 0.0), cell_m=1.0, occupied=np.ones((10, 10, 10), dtype=bool)
        )
        for n in (2, 3, 7, 20):
            points = [tuple(rng.uniform(0.0, 10.0, 3).tolist()) for _ in range(n)]
            free_cut = shortcut_path(empty, points)
            assert free_cut == _shortcut_path_reference(empty, points)
            assert free_cut == [points[0], points[-1]]
            blocked_cut = shortcut_path(full, points)
            assert blocked_cut == _shortcut_path_reference(full, points)
            assert blocked_cut == points


def _edge_segment_cases(rng, grid):
    """``test_edge_segments``' case list for ``grid``, drawing from ``rng``
    exactly as that test does."""
    o, c, size = grid.origin, grid.cell_m, grid.size_m
    top = tuple(oi + si for oi, si in zip(o, size))
    a = _random_point(rng, grid)
    cases = [
        (a, a),
        (top, top),
        (o, top),
        (top, (o[0], top[1], top[2])),
        ((o[0] - 5 * c, o[1] - 5 * c, o[2]), (o[0] - 5 * c, top[1] + 5 * c, top[2])),
        ((o[0], o[1], top[2] + c), (top[0], top[1], top[2] + c)),
    ]
    for k in range(1, 12):
        cases.append((a, (a[0] + k * 0.5 * c, a[1], a[2])))
        cases.append((a, (a[0], a[1] - k * 0.5 * c, a[2])))
    occ = np.argwhere(grid.occupied)
    if len(occ):
        i, j, k = occ[0]
        lo = tuple(oi + n * c for oi, n in zip(o, (i, j, k)))
        hi = tuple(v + c for v in lo)
        cases += [
            ((lo[0] - c, lo[1], lo[2]), (hi[0] + c, lo[1], lo[2])),
            ((lo[0] - c, hi[1], hi[2]), (hi[0] + c, hi[1], hi[2])),
            ((lo[0] - c, lo[1] - 1e-9, lo[2]), (hi[0] + c, lo[1] - 1e-9, lo[2])),
            ((lo[0], lo[1] - c, lo[2]), (hi[0], hi[1] + c, hi[2])),
        ]
    return cases


# ----------------------------------------------------------- neighbour test
def _neighbour_reference(a, b, r) -> bool:
    return sum((x - y) ** 2 for x, y in zip(a, b)) ** 0.5 <= r


def _assert_neighbour_tests_agree(a, b, r) -> None:
    assert _within_range(a, b, r) == _neighbour_reference(a, b, r), (a, b, r)


#: Integer offsets whose length is an integer: (offset, length).
PYTHAGOREAN = [
    ((3, 4, 0), 5), ((0, 5, 12), 13), ((2, 3, 6), 7), ((1, 4, 8), 9),
    ((4, 4, 7), 9), ((2, 6, 9), 11), ((6, 6, 7), 11), ((8, 9, 12), 17),
]


class TestNeighbourTestMatchesReference:
    def test_random_points(self):
        rng = np.random.default_rng(2121)
        for _ in range(20000):
            a = tuple(rng.uniform(-300.0, 300.0, 3).tolist())
            b = tuple(rng.uniform(-300.0, 300.0, 3).tolist())
            r = float(rng.choice([120.0, rng.uniform(0.0, 500.0)]))
            _assert_neighbour_tests_agree(a, b, r)

    @pytest.mark.parametrize("offset,length", PYTHAGOREAN)
    @pytest.mark.parametrize("scale", [0.5, 1.0, 8.0, 24.0])
    def test_offsets_exactly_on_the_circle(self, offset, length, scale):
        r = length * scale
        for base in [(0.0, 0.0, 0.0), (100.0, -40.5, 12.25), (-7.0, 3.0, 60.0)]:
            for signs in [(1, 1, 1), (-1, 1, -1), (1, -1, 1)]:
                # Dyadic coordinates, so every difference is exact.
                a = tuple(o + s * d * scale for o, s, d in zip(base, signs, offset))
                for radius in (r, math.nextafter(r, 0.0), math.nextafter(r, math.inf)):
                    _assert_neighbour_tests_agree(a, base, radius)
                    _assert_neighbour_tests_agree(base, a, radius)
                # The reversed axes lie on the same circle.
                _assert_neighbour_tests_agree(a[::-1], base[::-1], r)

    def test_near_circle_points_fall_into_the_band(self):
        rng = np.random.default_rng(77)
        in_band = plain_square_wrong = 0
        for i in range(6000):
            r = float(rng.uniform(1.0, 300.0))
            direction = rng.normal(size=3)
            direction /= np.linalg.norm(direction)
            b = tuple(rng.uniform(-100.0, 100.0, 3).tolist())
            # Off the circle by up to 4e-10, 4e-13 or a few ulps, relative.
            spread = (4e-10, 4e-13, 4e-16)[i % 3]
            stretch = 1.0 + float(rng.uniform(-spread, spread))
            a = tuple((np.asarray(b) + direction * r * stretch).tolist())
            d2 = sum((x - y) * (x - y) for x, y in zip(a, b))
            in_band += abs(d2 - r * r) <= 1e-9 * r * r
            plain_square_wrong += (d2 <= r * r) != _neighbour_reference(a, b, r)
            _assert_neighbour_tests_agree(a, b, r)
        assert in_band == 6000
        # A plain squared comparison is wrong on some of them: the band matters.
        assert plain_square_wrong > 0

    @pytest.mark.parametrize("r", [0.0, -0.0, -1.0, -120.0, math.inf, math.nan])
    def test_degenerate_ranges(self, r):
        for a, b in [
            ((0.0, 0.0, 0.0), (0.0, 0.0, 0.0)),
            ((1.0, 2.0, 3.0), (1.0, 2.0, 3.0)),
            ((0.0, 0.0, 0.0), (3.0, 4.0, 0.0)),
            ((0.0, 0.0, 0.0), (math.inf, 0.0, 0.0)),
            ((0.0, math.nan, 0.0), (0.0, 0.0, 0.0)),
        ]:
            _assert_neighbour_tests_agree(a, b, r)


# ------------------------------------------------------------ swarm motion
class _SwarmKinematicsReference:
    """The NumPy structure-of-arrays swarm kinematics the scalar form replaced."""

    def __init__(self, positions: np.ndarray, speeds: np.ndarray) -> None:
        self.pos = np.asarray(positions, dtype=np.float64).copy()
        self.speed = np.asarray(speeds, dtype=np.float64).copy()
        self.target = self.pos.copy()
        self.has_target = np.zeros(self.pos.shape[0], dtype=bool)

    def set_target(self, index: int, target: tuple[float, float]) -> None:
        self.target[index, 0] = float(target[0])
        self.target[index, 1] = float(target[1])
        self.has_target[index] = True

    def clear_target(self, index: int) -> None:
        self.has_target[index] = False

    def distance_to_target(self, index: int) -> float:
        delta = self.target[index] - self.pos[index]
        return float(np.hypot(delta[0], delta[1]))

    def step(self, dt: float) -> np.ndarray:
        delta = self.target - self.pos
        dist = np.hypot(delta[:, 0], delta[:, 1])
        reach = self.speed * dt
        active = self.has_target & (dist > 0.0)
        arrive = active & (dist <= reach)
        move = active & ~arrive
        scale = np.zeros_like(dist)
        np.divide(reach, dist, out=scale, where=move)
        self.pos[move] += delta[move] * scale[move, None]
        self.pos[arrive] = self.target[arrive]
        return arrive

    def distances_from(self, index: int, points: np.ndarray) -> np.ndarray:
        delta = np.asarray(points, dtype=np.float64) - self.pos[index]
        return np.hypot(delta[:, 0], delta[:, 1])


def _swarm_pair(positions, speeds):
    return (
        SwarmKinematics(positions, speeds),
        _SwarmKinematicsReference(np.asarray(positions), np.asarray(speeds)),
    )


def _assert_swarms_agree(kin, ref) -> None:
    assert [v.hex() for v in kin.x] == [float(v).hex() for v in ref.pos[:, 0]]
    assert [v.hex() for v in kin.y] == [float(v).hex() for v in ref.pos[:, 1]]
    for i in range(kin.n):
        assert kin.at_target(i) == (ref.distance_to_target(i) == 0.0), i


def _step_both(kin, ref, dt) -> None:
    arrived = kin.step(dt)
    mask = ref.step(dt)
    assert [i in arrived for i in range(kin.n)] == mask.tolist()
    assert arrived == sorted(arrived)
    _assert_swarms_agree(kin, ref)


SUBNORMAL = 5e-324


class TestSwarmMotionMatchesReference:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_fleets(self, seed):
        rng = np.random.default_rng(seed)
        n = (136, 1)[seed] if seed < 2 else int(rng.integers(1, 137))
        positions = rng.uniform(0.0, 600.0, (n, 2))
        speeds = rng.choice([0.0, 12.0, 15.0, float(rng.uniform(0.1, 40.0))], n)
        kin, ref = _swarm_pair(positions, speeds)
        dt = float(rng.choice([0.5, 0.1, 0.3]))
        for _ in range(40):
            for i in range(n):
                roll = rng.random()
                if roll < 0.08:
                    target = tuple(rng.uniform(0.0, 600.0, 2).tolist())
                elif roll < 0.16:  # chase another UAV, as a loiterer does
                    j = int(rng.integers(n))
                    target = (kin.x[j], kin.y[j])
                elif roll < 0.2:  # a target within a tick of travel
                    target = (kin.x[i] + float(rng.uniform(-5.0, 5.0)), kin.y[i])
                elif roll < 0.26:
                    kin.clear_target(i)
                    ref.clear_target(i)
                    continue
                else:
                    continue
                kin.set_target(i, target)
                ref.set_target(i, target)
            _step_both(kin, ref, dt)
            points = rng.uniform(0.0, 600.0, (int(rng.integers(0, 30)), 2))
            i = int(rng.integers(n))
            np.testing.assert_array_equal(
                kin.distances_from(i, points), ref.distances_from(i, points)
            )

    @pytest.mark.parametrize(
        "start,target",
        [
            ((0.0, 0.0), (7.5, 0.0)),  # exactly one tick of travel
            ((0.0, 0.0), (4.5, 6.0)),  # a 3-4-5 leg of exactly one tick
            ((1.0, 2.0), (1.0, 2.0 - 7.5)),
            ((0.0, 0.0), (math.nextafter(7.5, math.inf), 0.0)),
            ((0.0, 0.0), (math.nextafter(7.5, 0.0), 0.0)),
            ((3.0, 4.0), (3.0, 4.0)),  # zero offset
            ((0.0, 0.0), (SUBNORMAL, 0.0)),
            ((0.0, SUBNORMAL), (0.0, 0.0)),
            ((SUBNORMAL, -SUBNORMAL), (-SUBNORMAL, SUBNORMAL)),
            ((0.0, 0.0), (-0.0, 0.0)),
            ((-0.0, -0.0), (0.0, 0.0)),
            ((0.0, -0.0), (-0.0, 20.0)),
            ((1e-300, 0.0), (0.0, 1e-300)),
        ],
    )
    @pytest.mark.parametrize("speed", [15.0, 0.0])
    def test_edge_offsets(self, start, target, speed):
        kin, ref = _swarm_pair([start, (9.0, 9.0)], [speed, speed])
        _assert_swarms_agree(kin, ref)
        for uav in (kin, ref):
            uav.set_target(0, target)
            uav.set_target(1, target)
        _assert_swarms_agree(kin, ref)
        for _ in range(4):
            _step_both(kin, ref, 0.5)

    def test_cleared_and_frozen_uavs_stay_put(self):
        kin, ref = _swarm_pair([(0.0, 0.0), (10.0, 0.0), (20.0, 0.0)], [15.0] * 3)
        for uav in (kin, ref):
            for i in range(3):
                uav.set_target(i, (100.0, 100.0))
        _step_both(kin, ref, 0.5)
        for uav in (kin, ref):
            uav.clear_target(1)  # frozen mid-leg, far from its target
        for _ in range(30):
            _step_both(kin, ref, 0.5)
        assert (kin.x[1], kin.y[1]) == (float(ref.pos[1, 0]), float(ref.pos[1, 1]))
        assert not kin.at_target(1)
        for uav in (kin, ref):
            uav.set_target(1, (100.0, 100.0))
        for _ in range(30):
            _step_both(kin, ref, 0.5)
        assert all(kin.at_target(i) for i in range(3))

    def test_at_target_is_a_zero_hypot(self):
        values = [
            0.0, -0.0, SUBNORMAL, -SUBNORMAL, 2.2250738585072014e-308, 1e-300,
            0.1, 0.30000000000000004, 1.0, math.nextafter(1.0, 2.0), 7.5, 600.0,
            1e300, -1e300,
        ]
        kin = SwarmKinematics([(0.0, 0.0)], [1.0])
        for x, y, tx, ty in itertools.product(values, repeat=4):
            kin.x[0], kin.y[0], kin.tx[0], kin.ty[0] = x, y, tx, ty
            zero = float(np.hypot(np.float64(tx) - x, np.float64(ty) - y)) == 0.0
            assert kin.at_target(0) == zero, (x, y, tx, ty)

    def test_link_ranges_match_the_array_form(self):
        sim = SwarmSim({"k_leaders": 3, "rho": 4, "n_pois": 0})
        rng = np.random.default_rng(5)
        r2 = sim.comm_radius * sim.comm_radius
        for _ in range(50):
            sim.kin.x[:] = rng.uniform(0.0, 700.0, sim.kin.n).tolist()
            sim.kin.y[:] = rng.uniform(0.0, 700.0, sim.kin.n).tolist()
            # Some pairs exactly on the comm circle.
            sim.kin.x[sim.k], sim.kin.y[sim.k] = sim.kin.x[0] + 270.0, sim.kin.y[0] + 360.0
            sim._update_links()
            pos = np.column_stack([sim.kin.x, sim.kin.y])
            for li, fi, link in sim._links:
                delta = pos[fi] - pos[li]
                in_range = delta[0] * delta[0] + delta[1] * delta[1] <= r2
                assert link.loss_probability == (sim.base_loss if in_range else 1.0)
