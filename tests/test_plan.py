"""The obstacle-aware planning subsystem (:mod:`repro.plan`).

Five layers of guarantees:

1. Grid semantics — primitive rasterisation, the closed-boundary
   convention, conservative inflation, and the pure-NumPy nearest-obstacle
   index agreeing with brute force.
2. Planner properties — every A* path is collision-free on BOTH the
   inflated grid it searched and the raw grid (the oracle's view),
   straight-line legs pass through untouched, disconnected space raises;
   on random box worlds every query gets a raw-clear route or a
   ``PlanError``, whatever the inflation radius.
3. Routing properties — tours visit every assigned point, 2-opt never
   lengthens a tour, fleet partitions occupy disjoint east-bands (the
   inter-UAV separation property).
4. Integration — the scenario loader routes missions, SarMission routes
   coverage tracks and altitude re-plans, the ``planned_path_clearance``
   oracle catches a plan that cuts through a building, and detection
   gating agrees with the configured camera.
5. Kernel equivalence — the flat-index A* and the table-driven 2-opt
   return exactly what straightforward reference implementations return
   (kept below as oracles), A* paths cost what a brute-force Dijkstra
   says, the A* heuristic is the exact, consistent free-lattice
   distance, and the planner-ablation smoke fingerprint is pinned.
"""

from __future__ import annotations

import heapq
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro.harness.campaign import run_campaign
from repro.harness.oracles import (
    PlannedPathClearanceOracle,
    run_scenario_oracles,
)
from repro.plan import (
    ObstacleField,
    ObstacleIndex,
    OccupancyGrid3D,
    PlanError,
    inspection_points,
    nearest_neighbor_tour,
    partition_points,
    plan_inspection_tours,
    plan_path,
    route_waypoints,
    shortcut_path,
    tour_length,
    two_opt,
)
from repro.plan.astar import astar_cells
from repro.plan.experiment import (
    PINNED_SEED,
    PLANNER_ABLATION_CAMPAIGN,
    urban_config,
)
from repro.sar.coverage import CameraConfig, swath_width_m
from repro.sar.mission import SarMission
from repro.scenario import ScenarioError, lint_scenario, load_scenario
from repro.uav.world import Person

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def _wall_field(inflation_m: float = 2.0) -> ObstacleField:
    """A 100 m world split by a wall with clearance over the top."""
    return ObstacleField.build(
        size_m=(100.0, 100.0, 40.0),
        cell_m=2.0,
        boxes=[((40.0, 0.0, 0.0), (60.0, 100.0, 25.0))],
        cylinders=[],
        inflation_m=inflation_m,
    )


class TestOccupancyGrid:
    def test_empty_grid_shape_and_freeness(self):
        grid = OccupancyGrid3D.empty((40.0, 20.0, 10.0), 4.0)
        assert grid.shape == (10, 5, 3)
        assert not grid.occupied.any()
        assert grid.is_free((1.0, 1.0, 1.0))

    def test_box_occupies_cell_centres_inside(self):
        grid = OccupancyGrid3D.empty((40.0, 40.0, 20.0), 4.0)
        grid.add_box((8.0, 8.0, 0.0), (16.0, 16.0, 8.0))
        assert not grid.is_free((10.0, 10.0, 2.0))
        assert grid.is_free((30.0, 30.0, 2.0))
        assert grid.is_free((10.0, 10.0, 18.0))  # above the box

    def test_cylinder_occupies_radius(self):
        grid = OccupancyGrid3D.empty((40.0, 40.0, 20.0), 2.0)
        grid.add_cylinder((20.0, 20.0), 6.0, 10.0)
        assert not grid.is_free((20.0, 20.0, 5.0))
        assert grid.is_free((20.0, 35.0, 5.0))
        assert grid.is_free((20.0, 20.0, 15.0))  # above the mast

    def test_degenerate_box_raises(self):
        grid = OccupancyGrid3D.empty((40.0, 40.0, 20.0), 4.0)
        with pytest.raises(PlanError):
            grid.add_box((10.0, 10.0, 0.0), (10.0, 20.0, 8.0))

    def test_upper_boundary_belongs_to_last_cell(self):
        # A waypoint at exactly the area edge must see the obstacle that
        # fills the boundary cell — not fall outside into "free".
        grid = OccupancyGrid3D.empty((40.0, 40.0, 20.0), 4.0)
        grid.add_box((0.0, 36.0, 0.0), (40.0, 40.0, 20.0))
        assert not grid.is_free((20.0, 40.0, 10.0))
        assert grid.is_free((20.0, 41.0, 10.0))  # genuinely outside

    def test_outside_points_are_free(self):
        grid = OccupancyGrid3D.empty((40.0, 40.0, 20.0), 4.0)
        grid.occupied[:] = True
        assert grid.is_free((20.0, 20.0, 50.0))
        assert grid.is_free((-5.0, 20.0, 10.0))
        # However far out: finite points stay free.
        assert grid.is_free((1e300, 20.0, 10.0))
        assert grid.is_free((20.0, -1e300, 10.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_points_raise_plan_error(self, bad):
        # Regression: a NaN point used to read as free (through a
        # RuntimeWarning from the int cast), and a segment to it raised an
        # untyped ValueError or OverflowError.
        field = _wall_field()
        point = (10.0, bad, 10.0)
        with pytest.raises(PlanError, match="non-finite point"):
            field.grid.is_free(point)
        with pytest.raises(PlanError, match="non-finite point"):
            field.grid.segment_free((10.0, 10.0, 10.0), point)
        with pytest.raises(PlanError, match="non-finite point"):
            field.grid.segment_free(point, (10.0, 10.0, 10.0))
        with pytest.raises(PlanError, match="non-finite point"):
            plan_path(field.inflated, (10.0, 10.0, 10.0), point)
        with pytest.raises(PlanError, match="non-finite point"):
            plan_path(field.inflated, point, (90.0, 50.0, 10.0))

    def test_segment_free_detects_wall(self):
        field = _wall_field()
        assert not field.grid.segment_free((10.0, 50.0, 10.0), (90.0, 50.0, 10.0))
        assert field.grid.segment_free((10.0, 50.0, 35.0), (90.0, 50.0, 35.0))

    def test_inflation_smaller_than_cell_still_dilates(self):
        # Regression: a naive radius/cell dilation rounds 3 m / 4 m cells
        # down to zero offsets and silently skips inflation entirely.
        grid = OccupancyGrid3D.empty((40.0, 40.0, 20.0), 4.0)
        grid.add_box((16.0, 16.0, 0.0), (24.0, 24.0, 8.0))
        inflated = grid.inflate(3.0)
        assert inflated.occupied.sum() > grid.occupied.sum()

    def test_zero_inflation_still_dilates_face_neighbours(self):
        # The one-cell floor: at any radius below 0.134 cells (zero
        # included) the half-diagonal padding alone reaches no neighbour.
        grid = OccupancyGrid3D.empty((20.0, 20.0, 20.0), 4.0)
        grid.occupied[2, 2, 2] = True
        for radius_m in (0.0, 0.5):
            grown = grid.inflate(radius_m).occupied
            assert np.argwhere(grown).tolist() == sorted(
                [[2, 2, 2]]
                + [
                    [2 + d * (a == 0), 2 + d * (a == 1), 2 + d * (a == 2)]
                    for a in range(3)
                    for d in (-1, 1)
                ]
            )

    def test_inflation_preserves_raw_and_is_monotone(self):
        field = _wall_field(inflation_m=3.0)
        assert (
            field.inflated.occupied.sum() > field.grid.occupied.sum()
        )
        # Everything raw-occupied stays occupied after inflation.
        assert (field.inflated.occupied | ~field.grid.occupied).all()

    def test_nearest_free_snaps_interior_point(self):
        field = _wall_field()
        snapped = field.grid.nearest_free((50.0, 50.0, 10.0))
        assert field.grid.is_free(snapped)
        free_point = (10.0, 10.0, 10.0)
        assert field.grid.nearest_free(free_point) == free_point

    def test_fully_occupied_grid_raises(self):
        grid = OccupancyGrid3D.empty((8.0, 8.0, 8.0), 4.0)
        grid.occupied[:] = True
        with pytest.raises(PlanError):
            grid.nearest_free((4.0, 4.0, 4.0))


class TestObstacleIndex:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(7)
        cloud = rng.uniform(0.0, 100.0, size=(200, 3))
        queries = rng.uniform(-20.0, 120.0, size=(50, 3))
        index = ObstacleIndex(cloud, bin_m=16.0)
        got = index.nearest_distance(queries)
        want = np.array(
            [np.linalg.norm(cloud - q, axis=1).min() for q in queries]
        )
        assert np.allclose(got, want)

    def test_empty_cloud_is_infinitely_clear(self):
        index = ObstacleIndex(np.empty((0, 3)), bin_m=8.0)
        assert np.isinf(index.nearest_distance(np.zeros((3, 3)))).all()

    def test_grid_clearance_query(self):
        field = _wall_field()
        clear = field.grid.clearance_m(np.asarray([[10.0, 50.0, 10.0]]))
        # Wall starts at east 40; nearest occupied cell centre is at 41.
        assert 29.0 <= float(clear[0]) <= 33.0


class TestPlanner:
    def test_straight_leg_untouched(self):
        field = _wall_field()
        path = plan_path(field.inflated, (10.0, 10.0, 35.0), (90.0, 10.0, 35.0))
        assert path == [(10.0, 10.0, 35.0), (90.0, 10.0, 35.0)]

    def test_blocked_leg_routes_collision_free(self):
        field = _wall_field()
        start, goal = (10.0, 50.0, 10.0), (90.0, 50.0, 10.0)
        path = plan_path(field.inflated, start, goal)
        assert path[0] == start and path[-1] == goal
        assert len(path) > 2
        assert field.inflated.path_free(path)
        assert field.grid.path_free(path)

    def test_shortcut_never_longer(self):
        field = _wall_field()
        start, goal = (10.0, 50.0, 10.0), (90.0, 50.0, 10.0)
        path = plan_path(field.inflated, start, goal)
        # The smoothed path must beat the rectilinear detour bound.
        direct = math.dist(start, goal)
        assert direct < tour_length(path) < 2.5 * direct

    def test_shortcut_path_keeps_endpoints(self):
        field = _wall_field()
        points = [(10.0, 10.0, 35.0), (30.0, 10.0, 35.0), (90.0, 10.0, 35.0)]
        out = shortcut_path(field.inflated, points)
        assert out[0] == points[0] and out[-1] == points[-1]
        assert len(out) <= len(points)

    def test_endpoint_inside_obstacle_snaps(self):
        field = _wall_field()
        path = plan_path(field.inflated, (10.0, 50.0, 10.0), (50.0, 50.0, 10.0))
        assert field.inflated.is_free(path[-1])
        assert field.grid.path_free(path)

    def test_disconnected_space_raises(self):
        sealed = ObstacleField.build(
            size_m=(60.0, 60.0, 20.0),
            cell_m=2.0,
            boxes=[((28.0, 0.0, 0.0), (32.0, 60.0, 20.0))],
            cylinders=[],
            inflation_m=0.0,
        )
        with pytest.raises(PlanError):
            plan_path(sealed.inflated, (5.0, 30.0, 10.0), (55.0, 30.0, 10.0))

    def test_zero_inflation_leg_cannot_clip_raw_corner(self):
        # Regression: without the one-cell inflation floor, A* stepped
        # diagonally past the raw-occupied side cell (1, 1, 0) and the
        # smoother kept the start -> first-centre leg unchecked, so the
        # route crossed the box.
        field = ObstacleField.build(
            (16.0, 16.0, 8.0), 4.0,
            [((4.0, 4.0, 0.0), (8.0, 8.0, 8.0))], [], 0.0,
        )
        path = plan_path(field.inflated, (3.5, 7.5, 2.0), (10.0, 2.0, 2.0))
        assert path[-1] == (10.0, 2.0, 2.0)
        assert field.grid.path_free(path)

    def test_outside_endpoint_anchor_leg_is_free(self):
        # The endpoint enters the grid through a block on the x = 0 face,
        # and the free cell centre nearest its entry point lies right
        # behind the block: the anchor must be one the endpoint reaches.
        field = ObstacleField.build(
            size_m=(20.0, 20.0, 10.0),
            cell_m=2.0,
            boxes=[((0.0, 6.0, 0.0), (4.0, 14.0, 10.0))],
            cylinders=[],
            inflation_m=0.0,
        )
        start, goal = (-3.0, 10.0, 5.0), (19.0, 10.0, 5.0)
        grid = field.inflated
        nearest = grid.nearest_free((1e-6, 10.0, 5.0))
        assert not field.grid.segment_free(start, nearest)
        path = plan_path(grid, start, goal)
        assert path[0] == start and path[-1] == goal
        assert grid.path_free(path) and field.grid.path_free(path)

    def test_outside_endpoint_walled_off_raises(self):
        # Above a ceiling slab that covers the whole area, with the goal
        # under it: every straight leg into the grid crosses the slab.
        field = ObstacleField.build(
            size_m=(20.0, 20.0, 10.0),
            cell_m=2.0,
            boxes=[((0.0, 0.0, 6.0), (20.0, 20.0, 10.0))],
            cylinders=[],
            inflation_m=0.0,
        )
        with pytest.raises(PlanError, match="no free straight leg"):
            plan_path(field.inflated, (10.0, 10.0, 12.0), (3.0, 3.0, 1.0))

    def test_route_waypoints_multi_leg(self):
        field = _wall_field()
        start = (5.0, 5.0, 10.0)
        routed = route_waypoints(
            field, start, [(90.0, 50.0, 10.0), (10.0, 90.0, 10.0)]
        )
        assert field.grid.path_free([start] + routed)
        # Both original goals survive as flown waypoints.
        assert (90.0, 50.0, 10.0) in routed
        assert (10.0, 90.0, 10.0) in routed

    def test_boundary_waypoint_does_not_crash(self):
        field = _wall_field()
        routed = route_waypoints(
            field, (5.0, 5.0, 10.0), [(50.0, 100.0, 10.0)]
        )
        assert field.grid.path_free([(5.0, 5.0, 10.0)] + routed)


class TestRouting:
    def _points(self, n: int = 40, seed: int = 3) -> list:
        rng = np.random.default_rng(seed)
        return [
            (float(e), float(nn), 20.0)
            for e, nn in rng.uniform(0.0, 200.0, size=(n, 2))
        ]

    def test_nearest_neighbor_visits_everything_once(self):
        points = self._points()
        order = nearest_neighbor_tour((0.0, 0.0, 20.0), points)
        assert sorted(order) == list(range(len(points)))

    def test_two_opt_never_longer(self):
        points = self._points()
        start = (0.0, 0.0, 20.0)
        order = nearest_neighbor_tour(start, points)
        improved = two_opt(start, points, order)
        assert sorted(improved) == sorted(order)
        before = tour_length([start] + [points[i] for i in order])
        after = tour_length([start] + [points[i] for i in improved])
        assert after <= before + 1e-9

    def test_partition_separation_property(self):
        points = self._points(n=50)
        for n_parts in (2, 3, 4):
            parts = partition_points(points, n_parts)
            assert sorted(i for part in parts for i in part) == list(
                range(len(points))
            )
            assert max(len(p) for p in parts) - min(len(p) for p in parts) <= 1
            for left, right in zip(parts, parts[1:]):
                if left and right:
                    assert max(points[i][0] for i in left) <= min(
                        points[i][0] for i in right
                    )

    def test_inspection_points_respect_bounds_and_obstacles(self):
        field = _wall_field(inflation_m=3.0)
        points = inspection_points(100.0, 15.0, 10.0, field)
        assert points
        for east, north, up in points:
            assert 10.0 <= east <= 90.0
            assert 10.0 <= north <= 90.0
            assert up == 10.0
        free = field.inflated.points_free(np.asarray(points))
        assert free.all()

    def test_plan_inspection_tours_clear_and_separated(self):
        field = _wall_field(inflation_m=3.0)
        points = inspection_points(100.0, 15.0, 10.0, field)
        starts = [(5.0, 5.0, 10.0), (95.0, 5.0, 10.0)]
        tours = plan_inspection_tours(starts, points, field)
        assert len(tours) == 2
        visited = set()
        for start, tour in zip(starts, tours):
            assert field.grid.path_free([start] + tour)
            visited.update(tour)
        # Every inspection point is flown by exactly one UAV.
        assert visited >= set(points)


URBAN = {
    "seed": 5,
    "area_size_m": [200.0, 200.0],
    "obstacles": {
        "cell_m": 4.0,
        "inflation_m": 3.0,
        "boxes": [{"min": [80.0, 0.0, 0.0], "max": [110.0, 200.0, 30.0]}],
        "cylinders": [{"center": [150.0, 100.0], "radius": 10.0, "height": 25.0}],
    },
    "camera": {"half_fov_deg": 30.0, "overlap": 0.2},
    "uavs": [
        {"id": "uav1", "base": [10.0, 10.0, 0.0],
         "mission": [[40.0, 100.0, 12.0], [170.0, 100.0, 12.0]]},
    ],
}


class TestScenarioIntegration:
    def test_loader_routes_mission_around_wall(self):
        scenario = load_scenario(json.loads(json.dumps(URBAN)))
        world = scenario.world
        uav = world.uavs["uav1"]
        flown = [tuple(uav.dynamics.position)] + [
            tuple(wp) for wp in uav.plan.waypoints
        ]
        assert len(uav.plan.waypoints) > 2  # the wall forced a detour
        assert world.obstacles.grid.path_free(flown)
        assert world.camera == CameraConfig(half_fov_deg=30.0, overlap=0.2)

    def test_urban_archive_loads_and_lints(self):
        config = json.loads((SCENARIOS / "urban_sar.json").read_text())
        assert lint_scenario(config) == []
        world = load_scenario(config).world
        for uav in world.uavs.values():
            flown = [tuple(uav.dynamics.position)] + [
                tuple(wp) for wp in uav.plan.waypoints
            ]
            assert world.obstacles.grid.path_free(flown)

    @pytest.mark.parametrize(
        "patch, message",
        [
            ({"cell_m": 0.0}, "cell_m"),
            ({"inflation_m": -1.0}, "inflation_m"),
            ({"boxes": [{"min": [0, 0, 0], "max": [0, 10, 10]}]}, "boxes"),
            ({"cylinders": [{"center": [10, 10], "radius": -1, "height": 5}]},
             "cylinders"),
            ({"ceiling_m": -5.0}, "ceiling_m"),
        ],
    )
    def test_malformed_obstacles_rejected(self, patch, message):
        config = json.loads(json.dumps(URBAN))
        config["obstacles"] = {**config["obstacles"], **patch}
        with pytest.raises(ScenarioError, match=message):
            load_scenario(config)

    def test_malformed_camera_rejected(self):
        config = json.loads(json.dumps(URBAN))
        config["camera"] = {"half_fov_deg": 95.0}
        with pytest.raises(ScenarioError, match="half_fov_deg"):
            load_scenario(config)

    def test_lint_flags_unknown_obstacle_keys(self):
        config = json.loads(json.dumps(URBAN))
        config["obstacles"]["boxs"] = []
        config["camera"]["fov"] = 1.0
        problems = lint_scenario(config)
        assert any("obstacles.boxs" in p for p in problems)
        assert any("camera.fov" in p for p in problems)

    def test_unroutable_mission_is_a_scenario_error(self):
        config = json.loads(json.dumps(URBAN))
        # Wall to the explicit ceiling: no route over the top any more.
        config["obstacles"]["ceiling_m"] = 30.0
        with pytest.raises(ScenarioError, match="mission"):
            load_scenario(config)

    def test_assign_paths_routes_and_scan_uses_camera(self):
        scenario = load_scenario(json.loads(json.dumps(URBAN)))
        world = scenario.world
        mission = SarMission(world=world, altitude_m=18.0)
        assert mission.camera == world.camera
        plans = mission.assign_paths()
        for uav_id, plan in plans.items():
            base = tuple(world.uavs[uav_id].spec.base_position)
            assert world.obstacles.grid.path_free(
                [base] + [tuple(wp) for wp in plan]
            )

    def test_set_fleet_altitude_reroutes(self):
        scenario = load_scenario(json.loads(json.dumps(URBAN)))
        world = scenario.world
        mission = SarMission(world=world, altitude_m=35.0)
        mission.assign_paths()
        # Descending to 12 m puts the remaining track below the rooftops.
        mission.set_fleet_altitude(12.0)
        for uav in world.uavs.values():
            flown = [tuple(uav.dynamics.position)] + [
                tuple(wp) for wp in uav.plan.waypoints
            ]
            assert world.obstacles.grid.path_free(flown)


class TestClearanceOracle:
    def test_catches_plan_through_building(self):
        scenario = load_scenario(json.loads(json.dumps(URBAN)))
        world = scenario.world
        oracle = PlannedPathClearanceOracle()
        oracle.observe(world, 0.0)
        assert not oracle.violations  # the loader routed the mission
        # A raw replace that cuts straight through the wall must fire.
        world.uavs["uav1"].plan.replace(
            [(40.0, 100.0, 12.0), (170.0, 100.0, 12.0)]
        )
        oracle.observe(world, 1.0)
        assert oracle.violations
        assert oracle.violations[0].oracle == "planned_path_clearance"

    def test_rechecks_only_on_plan_change(self):
        scenario = load_scenario(json.loads(json.dumps(URBAN)))
        world = scenario.world
        oracle = PlannedPathClearanceOracle()
        oracle.observe(world, 0.0)
        world.uavs["uav1"].plan.replace([(40.0, 100.0, 12.0), (170.0, 100.0, 12.0)])
        oracle.observe(world, 1.0)
        oracle.observe(world, 2.0)  # same list object: not re-reported
        assert len(oracle.violations) == 1

    def test_obstacle_free_world_checks_nothing(self):
        scenario = load_scenario(
            {"seed": 1, "uavs": [{"id": "a", "mission": [[10.0, 10.0, 10.0]]}]}
        )
        oracle = PlannedPathClearanceOracle()
        oracle.observe(scenario.world, 0.0)
        assert not oracle.violations

    def test_full_suite_passes_on_urban_archive(self):
        config = json.loads((SCENARIOS / "urban_sar.json").read_text())
        report = run_scenario_oracles(config, horizon_s=8.0)
        assert "planned_path_clearance" in report.checked
        assert report.passed, [v.to_dict() for v in report.violations]


class TestCameraAgreement:
    """Detection gating and coverage planning share the camera (the
    ``mission.py:132`` regression: gating used default optics no matter
    what the plan was built with)."""

    ALTITUDE = 20.0

    def _mission(self):
        scenario = load_scenario(
            {
                "seed": 0,
                "area_size_m": [400.0, 300.0],
                "camera": {"half_fov_deg": 20.0, "overlap": 0.3},
                "uavs": [{"id": "uav1", "base": [0.0, 0.0, 0.0]}],
            }
        )
        return SarMission(world=scenario.world, altitude_m=self.ALTITUDE)

    def test_gating_uses_configured_swath(self):
        mission = self._mission()
        world = mission.world
        uav = world.uavs["uav1"]
        uav.dynamics.position = (100.0, 100.0, self.ALTITUDE)
        configured_half = mission.camera.swath_width_m(self.ALTITUDE) / 2.0
        default_half = swath_width_m(self.ALTITUDE) / 2.0
        assert configured_half < default_half
        # A person between the two half-swaths: the default camera would
        # attempt a detection, the configured one must not.
        between = (configured_half + default_half) / 2.0
        world.persons.append(Person("p-out", (100.0 + between, 100.0)))
        mission._scan(uav, 1.0)
        assert mission.metrics.attempts == []
        # Inside the configured swath the attempt fires.
        world.persons.append(
            Person("p-in", (100.0 + 0.9 * configured_half, 100.0))
        )
        mission._scan(uav, 10.0)
        assert len(mission.metrics.attempts) == 1

    def test_plan_spacing_matches_configured_swath(self):
        mission = self._mission()
        plans = mission.assign_paths()
        spacing = mission.camera.swath_width_m(mission.altitude_m)
        (path,) = plans.values()
        easts = sorted({round(wp[0], 9) for wp in path})
        assert len(easts) > 1
        gaps = [b - a for a, b in zip(easts, easts[1:])]
        assert all(gap <= spacing + 1e-9 for gap in gaps)
        # The default camera would have cut the track count roughly in
        # half; pin that the configured spacing actually took effect.
        assert len(easts) == math.ceil(400.0 / spacing)


# ------------------------------------------------------ kernel equivalence
#: The 26-neighbourhood with Euclidean move costs, for the oracles below.
_MOVES = [
    (di, dj, dk, math.sqrt(di * di + dj * dj + dk * dk))
    for di in (-1, 0, 1)
    for dj in (-1, 0, 1)
    for dk in (-1, 0, 1)
    if (di, dj, dk) != (0, 0, 0)
]


def _lattice_h(cell, goal):
    """The 3D octile distance :func:`astar_cells` uses as its heuristic:
    the cost of the cheapest obstacle-free lattice path, with the offset
    magnitudes sorted ``lo <= mid <= hi`` — ``lo`` body diagonals,
    ``mid - lo`` face diagonals, ``hi - mid`` axis moves. Same float
    order as the kernel's inlined form."""
    lo, mid, hi = sorted(abs(a - b) for a, b in zip(cell, goal))
    return (math.sqrt(3.0) - math.sqrt(2.0)) * lo + (math.sqrt(2.0) - 1.0) * mid + hi


def _reference_astar_cells(occupied, start, goal):
    """Textbook A* on cell tuples with dict/set bookkeeping.

    The readable statement of what :func:`astar_cells` computes: same
    move costs, same heuristic, same (f, cell) heap ordering.
    """
    nx, ny, nz = occupied.shape
    if occupied[start] or occupied[goal]:
        return None
    if start == goal:
        return [start]
    g_score = {start: 0.0}
    came = {}
    frontier = [(_lattice_h(start, goal), start)]
    closed = set()
    while frontier:
        _, cell = heapq.heappop(frontier)
        if cell in closed:
            continue
        if cell == goal:
            path = [cell]
            while cell in came:
                cell = came[cell]
                path.append(cell)
            return path[::-1]
        closed.add(cell)
        ci, cj, ck = cell
        for di, dj, dk, cost in _MOVES:
            neighbor = (ci + di, cj + dj, ck + dk)
            ni, nj, nk = neighbor
            if not (0 <= ni < nx and 0 <= nj < ny and 0 <= nk < nz):
                continue
            if neighbor in closed or occupied[neighbor]:
                continue
            tentative = g_score[cell] + cost
            if tentative < g_score.get(neighbor, math.inf):
                g_score[neighbor] = tentative
                came[neighbor] = cell
                heapq.heappush(
                    frontier, (tentative + _lattice_h(neighbor, goal), neighbor)
                )
    return None


def _dijkstra_costs(occupied, start, goal=None):
    """Brute-force shortest 26-connected lattice costs from ``start`` (no
    heuristic): to every reachable cell, or until ``goal`` is settled."""
    nx, ny, nz = occupied.shape
    dist = {start: 0.0}
    frontier = [(0.0, start)]
    while frontier:
        d, cell = heapq.heappop(frontier)
        if cell == goal:
            break
        if d > dist[cell]:
            continue
        for di, dj, dk, cost in _MOVES:
            n = (cell[0] + di, cell[1] + dj, cell[2] + dk)
            if not (0 <= n[0] < nx and 0 <= n[1] < ny and 0 <= n[2] < nz):
                continue
            if occupied[n] or d + cost >= dist.get(n, math.inf):
                continue
            dist[n] = d + cost
            heapq.heappush(frontier, (d + cost, n))
    return dist


def _dijkstra_cost(occupied, start, goal):
    """Brute-force shortest lattice cost, ``None`` when unreachable."""
    return _dijkstra_costs(occupied, start, goal).get(goal)


def _path_cost(path):
    return sum(math.dist(a, b) for a, b in zip(path, path[1:]))


def _random_grid(rng, shape, density):
    """Random obstacles plus at least one blocked cell on every face."""
    occupied = rng.random(shape) < density
    for axis, size in enumerate(shape):
        for end in (0, size - 1):
            cell = [int(rng.integers(n)) for n in shape]
            cell[axis] = end
            occupied[tuple(cell)] = True
    return occupied


def _boundary_cells(shape):
    """All corner cells plus one interior cell of every face."""
    corners = list(itertools.product(*[(0, n - 1) for n in shape]))
    mids = []
    for axis, size in enumerate(shape):
        for end in (0, size - 1):
            cell = [n // 2 for n in shape]
            cell[axis] = end
            mids.append(tuple(cell))
    return sorted(set(corners + mids))


class TestAstarKernel:
    SHAPES = [(7, 6, 5), (9, 9, 4), (12, 5, 3), (1, 8, 6), (6, 6, 1)]

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_reference_on_random_grids(self, seed):
        rng = np.random.default_rng(seed)
        for shape in self.SHAPES:
            occupied = _random_grid(rng, shape, density=0.25)
            cells = _boundary_cells(shape)
            # Face/corner endpoints plus a few random interior pairs.
            pairs = [
                (cells[a], cells[b])
                for a, b in rng.integers(len(cells), size=(6, 2))
            ]
            pairs += [
                (
                    tuple(int(rng.integers(n)) for n in shape),
                    tuple(int(rng.integers(n)) for n in shape),
                )
                for _ in range(4)
            ]
            for start, goal in pairs:
                occ = occupied.copy()
                occ[start] = occ[goal] = False
                want = _reference_astar_cells(occ, start, goal)
                got = astar_cells(occ, start, goal)
                assert got == want, (shape, start, goal)
                if got is None:
                    assert _dijkstra_cost(occ, start, goal) is None
                    continue
                assert got[0] == start and got[-1] == goal
                for a, b in zip(got, got[1:]):
                    assert max(abs(u - v) for u, v in zip(a, b)) == 1
                assert not any(occ[c] for c in got)
                assert math.isclose(
                    _path_cost(got),
                    _dijkstra_cost(occ, start, goal),
                    rel_tol=1e-12,
                )

    def test_matches_reference_on_wall_world(self):
        occupied = _wall_field().inflated.occupied
        start, goal = (2, 25, 3), (47, 25, 3)
        path = astar_cells(occupied, start, goal)
        assert path == _reference_astar_cells(occupied, start, goal)
        assert math.isclose(
            _path_cost(path), _dijkstra_cost(occupied, start, goal),
            rel_tol=1e-12,
        )

    def test_start_equals_goal(self):
        occupied = np.zeros((4, 4, 4), dtype=bool)
        assert astar_cells(occupied, (3, 0, 3), (3, 0, 3)) == [(3, 0, 3)]

    def test_blocked_endpoints_return_none(self):
        occupied = np.zeros((5, 5, 5), dtype=bool)
        occupied[0, 0, 0] = occupied[4, 4, 4] = True
        assert astar_cells(occupied, (0, 0, 0), (2, 2, 2)) is None
        assert astar_cells(occupied, (2, 2, 2), (4, 4, 4)) is None
        # A blocked cell is blocked even when start == goal.
        assert astar_cells(occupied, (0, 0, 0), (0, 0, 0)) is None

    def test_unreachable_goal_returns_none(self):
        occupied = np.zeros((9, 5, 4), dtype=bool)
        occupied[4, :, :] = True  # a sealed wall: the padding must hold
        assert astar_cells(occupied, (0, 2, 1), (8, 2, 1)) is None
        assert _reference_astar_cells(occupied, (0, 2, 1), (8, 2, 1)) is None

    def test_expansion_cap_raises_naming_cap_and_cells(self):
        occupied = np.zeros((10, 10, 10), dtype=bool)
        occupied[5, :, 1:] = True
        with pytest.raises(
            PlanError, match=r"max_expansions=5\b.*\(0, 0, 9\).*\(9, 9, 9\)"
        ):
            astar_cells(occupied, (0, 0, 9), (9, 9, 9), max_expansions=5)
        # A cap the search fits under is invisible.
        path = astar_cells(
            occupied, (0, 0, 9), (9, 9, 9), max_expansions=occupied.size
        )
        assert path == _reference_astar_cells(occupied, (0, 0, 9), (9, 9, 9))

    def test_cap_is_not_reported_as_disconnected(self):
        # An unreachable goal behind a large open component exhausts the
        # cap first: that is a cap error, not "no route".
        occupied = np.zeros((10, 10, 10), dtype=bool)
        occupied[8, :, :] = True
        with pytest.raises(PlanError, match="expansion cap"):
            astar_cells(occupied, (0, 0, 0), (9, 9, 9), max_expansions=50)
        assert astar_cells(occupied, (0, 0, 0), (9, 9, 9)) is None


class TestInPlaceGridEdits:
    def test_queries_see_an_obstacle_added_in_place(self):
        grid = _wall_field().inflated
        start, goal = (10.0, 50.0, 10.0), (90.0, 50.0, 10.0)
        idx, _ = grid.point_indices(np.asarray([start, goal]))
        s_cell, g_cell = (tuple(int(v) for v in row) for row in idx)
        route = plan_path(grid, start, goal)
        cells = astar_cells(grid.occupied, s_cell, g_cell)
        assert len(route) > 2
        # An interior route vertex is the centre of a cell on the A* path.
        hit, _ = grid.point_indices(np.asarray(route[1:2]))
        edited = tuple(int(v) for v in hit[0])
        assert edited in cells
        assert grid.segments_free(route[:-1], route[1:]).all()

        grid.occupied[edited] = True

        legs_free = grid.segments_free(route[:-1], route[1:])
        assert not legs_free[0] and not legs_free[1]
        new_cells = astar_cells(grid.occupied, s_cell, g_cell)
        assert new_cells is not None and edited not in new_cells
        new_route = plan_path(grid, start, goal)
        assert new_route != route
        assert grid.path_free(new_route)


class TestLatticeHeuristic:
    def test_equals_empty_grid_dijkstra_cost(self):
        # Every integer offset up to 12 per axis, in all eight octants.
        occupied = np.zeros((25, 25, 25), dtype=bool)
        centre = (12, 12, 12)
        dist = _dijkstra_costs(occupied, centre)
        assert len(dist) == occupied.size
        for cell, cost in dist.items():
            assert math.isclose(_lattice_h(cell, centre), cost, rel_tol=1e-12)

    def test_consistent_across_every_move(self):
        goal = (0, 0, 0)
        span = range(-6, 7)
        for cell in itertools.product(span, span, span):
            h = _lattice_h(cell, goal)
            for di, dj, dk, cost in _MOVES:
                step = (cell[0] + di, cell[1] + dj, cell[2] + dk)
                assert h <= cost + _lattice_h(step, goal) + 1e-9

    def test_zero_at_goal(self):
        assert _lattice_h((3, 7, 1), (3, 7, 1)) == 0.0

    def test_urban_leg_fits_a_tight_expansion_cap(self):
        # A straight-line heuristic needs 5,563 expansions on this leg
        # around the urban block; the lattice distance needs 1,375.
        world = load_scenario(urban_config(PINNED_SEED, 6)).world
        occupied = world.obstacles.inflated.occupied
        start, goal = (63, 79, 6), (63, 0, 6)
        path = astar_cells(occupied, start, goal, max_expansions=2000)
        assert math.isclose(
            _path_cost(path), _dijkstra_cost(occupied, start, goal),
            rel_tol=1e-12,
        )


def _verdict_world(rng):
    """A random box world on a 2 m or 4 m lattice for the verdict test.

    Scattered boxes, plus (three draws in four) a ceiling slab over the
    whole area, a full-height wall across it, or both; the inflation
    radius is zero, under 0.134 cells (where the half-diagonal padding
    alone reaches no neighbour) or 0.5-4 m.
    """
    cell = float(rng.choice([2.0, 4.0]))
    size = tuple(
        float(n) * cell
        for n in (*rng.integers(5, 11, size=2), rng.integers(3, 6))
    )
    boxes = []
    for _ in range(int(rng.integers(1, 5))):
        lo = rng.uniform(0.0, 1.0, 3) * np.asarray(size)
        hi = np.minimum(lo + rng.uniform(0.5, 3.0, 3) * cell, size)
        if (hi > lo).all():
            boxes.append((tuple(map(float, lo)), tuple(map(float, hi))))
    kind = int(rng.integers(4))
    ceiling = float(rng.uniform(0.4, 0.8)) * size[2]
    if kind in (1, 3):
        boxes.append(((0.0, 0.0, ceiling), size))
    if kind in (2, 3):
        y = float(rng.uniform(0.3, 0.7)) * size[1]
        thick = float(rng.uniform(0.3, 1.5)) * cell
        boxes.append(((0.0, y, 0.0), (size[0], y + thick, size[2])))
    band = int(rng.integers(3))
    if band == 0:
        inflation = 0.0
    elif band == 1:
        inflation = float(rng.uniform(0.0, 0.134 * cell))
    else:
        inflation = float(rng.uniform(0.5, 4.0))
    field = ObstacleField.build(size, cell, boxes, [], inflation)
    return field, size


class TestPlannerVerdicts:
    def test_route_clears_raw_grid_or_plan_error(self):
        # Endpoints anywhere inside the grid volume: every answer is a
        # raw-clear route or a PlanError — never None, never another
        # exception type, never a leg through a raw-occupied cell.
        rng = np.random.default_rng(0)
        routed = refused = 0
        for _ in range(200):
            field, size = _verdict_world(rng)
            for _ in range(20):
                start, goal = (
                    tuple(map(float, rng.uniform(0.0, 1.0, 3) * size))
                    for _ in range(2)
                )
                try:
                    path = plan_path(field.inflated, start, goal)
                except PlanError:
                    refused += 1
                    continue
                assert isinstance(path, list) and len(path) >= 2
                assert field.grid.path_free(path), (
                    field.grid.cell_m, field.inflation_m, path,
                )
                routed += 1
        # Both verdicts occur: sealed walls and full grids refuse.
        assert routed > 2000 and refused > 300

    def test_outside_endpoints_clear_raw_grid_or_plan_error(self):
        # Endpoints up to 15% outside the grid volume on every axis. The
        # leg from an outside endpoint to its in-grid anchor must be
        # checked like every other leg: it once crossed raw obstacles on
        # about one route in eight.
        rng = np.random.default_rng(0)
        routed = refused = anchored = 0
        for _ in range(200):
            field, size = _verdict_world(rng)
            for _ in range(20):
                start, goal = (
                    tuple(map(float, rng.uniform(-0.15, 1.15, 3) * size))
                    for _ in range(2)
                )
                try:
                    path = plan_path(field.inflated, start, goal)
                except PlanError:
                    refused += 1
                    continue
                assert isinstance(path, list) and len(path) >= 2
                assert field.grid.path_free(path), (
                    field.grid.cell_m, field.inflation_m, path,
                )
                routed += 1
                outside = not all(
                    0.0 <= v <= hi for v, hi in zip(start + goal, size + size)
                )
                anchored += outside and len(path) > 2
        assert routed > 2000 and refused > 300 and anchored > 500


def _reference_two_opt(start, points, order, max_passes=8):
    """2-opt with four ``np.linalg.norm`` calls per candidate move."""
    if len(order) < 3:
        return list(order)
    order = list(order)
    arr = np.asarray([start] + [points[i] for i in order], dtype=float)
    n = len(arr)
    for _ in range(max_passes):
        improved = False
        for i in range(1, n - 2):
            for j in range(i + 1, n - 1):
                d_old = np.linalg.norm(arr[i - 1] - arr[i]) + np.linalg.norm(
                    arr[j] - arr[j + 1]
                )
                d_new = np.linalg.norm(arr[i - 1] - arr[j]) + np.linalg.norm(
                    arr[i] - arr[j + 1]
                )
                if d_new < d_old - 1e-9:
                    arr[i : j + 1] = arr[i : j + 1][::-1]
                    order[i - 1 : j] = order[i - 1 : j][::-1]
                    improved = True
        if not improved:
            break
    return order


class TestTwoOptKernel:
    START = (0.0, 0.0, 20.0)

    @staticmethod
    def _random_points(n, seed):
        rng = np.random.default_rng(seed)
        return [
            (float(e), float(nn), float(u))
            for e, nn, u in zip(
                rng.uniform(0.0, 200.0, n),
                rng.uniform(0.0, 200.0, n),
                rng.uniform(10.0, 30.0, n),
            )
        ]

    @staticmethod
    def _lattice_points(n, seed):
        # A 6 x 6 lattice with a 0.1 m pitch (not exact in binary) and
        # repeats: many equal and zero-length legs, and moves whose gain
        # is pure rounding noise, which only the 1e-9 margin rejects.
        rng = np.random.default_rng(seed)
        return [
            (float(e), float(nn), 20.0)
            for e, nn in rng.integers(0, 6, size=(n, 2)) * 0.1
        ]

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 33])
    @pytest.mark.parametrize("max_passes", [1, 8])
    @pytest.mark.parametrize("kind", ["random", "lattice"])
    def test_matches_reference(self, n, max_passes, kind):
        make = self._random_points if kind == "random" else self._lattice_points
        for seed in range(4):
            points = make(n, seed)
            rng = np.random.default_rng(100 + seed)
            orders = [
                nearest_neighbor_tour(self.START, points),
                [int(i) for i in rng.permutation(n)],
            ]
            for order in orders:
                want = _reference_two_opt(self.START, points, order, max_passes)
                got = two_opt(self.START, points, order, max_passes)
                assert got == want, (kind, n, max_passes, seed)

    def test_does_not_mutate_input(self):
        points = self._random_points(12, 5)
        order = list(range(11, -1, -1))
        two_opt(self.START, points, order)
        assert order == list(range(11, -1, -1))


#: planner-ablation smoke fingerprint; any change to a planned cell path
#: or tour order changes it, including a heuristic that breaks ties
#: between equal-cost cell paths differently.
PLANNER_SMOKE_FINGERPRINT = "5f13add9d7cbd68991560857"


def test_planner_ablation_smoke_fingerprint_pinned():
    result = run_campaign(PLANNER_ABLATION_CAMPAIGN, grid="smoke")
    assert result.failed_records == []
    assert result.fingerprint == PLANNER_SMOKE_FINGERPRINT
