"""Planner bench: a 200-point inspection mission on a 64^3 voxel grid.

The tentpole planning stack end to end — build the occupancy grid from
primitives, inflate it, lay a 200-point inspection lattice, partition it
across a three-UAV fleet, order each part with nearest-neighbour + 2-opt,
and route every tour around the obstacles with A* — all inside a fixed
wall-clock budget. The budget is deliberately generous (CI machines vary)
but still catches an accidental complexity regression: a planner that
re-inflates per leg or A*-searches open terrain blows straight through
it.
"""

import time

import numpy as np
from conftest import print_table, run_once

from repro.plan import (
    ObstacleField,
    inspection_points,
    nearest_neighbor_tour,
    partition_points,
    route_waypoints,
    tour_length,
    two_opt,
)

AREA_M = 256.0
CELL_M = 4.0          # 256 m / 4 m = 64 cells per axis
ALTITUDE = 30.0
N_POINTS = 200
STARTS = [(8.0, 8.0, ALTITUDE), (128.0, 8.0, ALTITUDE), (248.0, 8.0, ALTITUDE)]
#: Wall-clock ceiling for the whole mission plan (build + tours + A*).
#: On a 2-vCPU Intel Xeon the plan took 0.42 s with a tuple/dict A* and
#: 0.14 s with the flat-index A* and table-driven 2-opt; on a later
#: 2-vCPU Xeon host it takes 0.06-0.07 s with either the straight-line or
#: the octile A* heuristic (few legs at 30 m need A*). With the batched
#: segment-clearance kernel it takes 0.06-0.10 s on a 2-vCPU Xeon VM,
#: against 0.09-0.10 s before it in alternating runs on the same host
#: (few legs here need shortcut smoothing): ample headroom for slow CI
#: runners, yet tight enough to catch a complexity regression in the
#: planner stack.
BUDGET_S = 5.0


def _urban_field() -> ObstacleField:
    """A seeded city block: 12 buildings and 6 masts, clear margins.

    Primitive footprints stay >= 20 m from the area edges so the fleet
    bases are in free space even after inflation.
    """
    rng = np.random.default_rng(64)
    boxes = []
    for _ in range(12):
        cx, cy = rng.uniform(40.0, AREA_M - 40.0, size=2)
        hx, hy = rng.uniform(8.0, 20.0, size=2)
        height = float(rng.uniform(20.0, 60.0))
        boxes.append(
            (
                (float(cx - hx), float(cy - hy), 0.0),
                (float(cx + hx), float(cy + hy), height),
            )
        )
    cylinders = []
    for _ in range(6):
        cx, cy = rng.uniform(40.0, AREA_M - 40.0, size=2)
        cylinders.append(
            (
                (float(cx), float(cy)),
                float(rng.uniform(4.0, 10.0)),
                float(rng.uniform(15.0, 50.0)),
            )
        )
    return ObstacleField.build(
        size_m=(AREA_M, AREA_M, AREA_M),
        cell_m=CELL_M,
        boxes=boxes,
        cylinders=cylinders,
        inflation_m=3.0,
    )


def test_planner_200_point_mission(benchmark):
    """A* + 2-opt plans the full 200-point mission under BUDGET_S."""

    def plan_mission():
        t0 = time.perf_counter()
        field = _urban_field()
        build_s = time.perf_counter() - t0

        candidates = inspection_points(AREA_M, 14.0, ALTITUDE, field)
        assert len(candidates) >= N_POINTS, (
            f"lattice only yielded {len(candidates)} free points"
        )
        points = candidates[:N_POINTS]

        t1 = time.perf_counter()
        parts = partition_points(points, len(STARTS))
        rows = []
        tours = []
        for start, part in zip(STARTS, parts):
            pts = [points[i] for i in part]
            nn = nearest_neighbor_tour(start, pts)
            nn_m = tour_length([start] + [pts[i] for i in nn])
            order = two_opt(start, pts, nn)
            opt_m = tour_length([start] + [pts[i] for i in order])
            tour = route_waypoints(field, start, [pts[i] for i in order])
            routed_m = tour_length([start] + tour)
            tours.append((start, tour))
            rows.append((len(pts), nn_m, opt_m, routed_m, len(tour)))
        plan_s = time.perf_counter() - t1
        return {
            "field": field,
            "points": points,
            "rows": rows,
            "tours": tours,
            "build_s": build_s,
            "plan_s": plan_s,
            "total_s": build_s + plan_s,
        }

    result = run_once(benchmark, plan_mission)
    field = result["field"]
    assert field.grid.shape == (64, 64, 64)

    print_table(
        "Planner bench — 200 inspection points, 64^3 grid, 3 UAVs",
        ["UAV", "points", "NN tour [m]", "2-opt tour [m]",
         "routed [m]", "waypoints"],
        [
            [f"uav{i + 1}", r[0], f"{r[1]:.0f}", f"{r[2]:.0f}",
             f"{r[3]:.0f}", r[4]]
            for i, r in enumerate(result["rows"])
        ],
    )
    print(
        f"grid build {result['build_s']:.2f} s + tours {result['plan_s']:.2f} s"
        f" = {result['total_s']:.2f} s (budget {BUDGET_S:.0f} s)"
    )
    benchmark.extra_info["build_s"] = result["build_s"]
    benchmark.extra_info["plan_s"] = result["plan_s"]

    # The budget is the headline assertion: the whole mission plan, grid
    # build included, lands inside the fixed wall-clock ceiling.
    assert result["total_s"] < BUDGET_S

    # 2-opt never lengthens the tour it was handed.
    for n_pts, nn_m, opt_m, _, _ in result["rows"]:
        assert opt_m <= nn_m + 1e-9

    # Every routed tour is collision-free on the RAW grid and the fleet
    # visits all 200 points between them.
    visited = set()
    for start, tour in result["tours"]:
        assert field.grid.path_free([start] + tour)
        visited.update(tour)
    assert visited >= set(result["points"])
