"""Multi-UAV inspection-point routing.

Turns a field of inspection points into per-UAV tours: points are
partitioned across vehicles by east-sorted contiguous chunks (so fleets
sweep disjoint east-bands — the inter-UAV separation property the tests
assert), each chunk is ordered with a nearest-neighbour tour and improved
with 2-opt, and each tour is finally routed around obstacles leg by leg
with the A* planner. Pure geometry: distances, NumPy, and
:mod:`repro.plan` only — no imports from the sar or uav layers.
"""

from __future__ import annotations

import math

import numpy as np

from repro.plan.astar import route_waypoints
from repro.plan.grid import ObstacleField

Point = tuple[float, float, float]


def nearest_neighbor_tour(start: Point, points: list[Point]) -> list[int]:
    """Order ``points`` greedily by nearest-neighbour from ``start``.

    Returns indices into ``points``. Ties break toward the lower index,
    which keeps the construction deterministic for identical inputs.
    """
    remaining = list(range(len(points)))
    order: list[int] = []
    cursor = start
    while remaining:
        best = min(remaining, key=lambda i: (math.dist(cursor, points[i]), i))
        remaining.remove(best)
        order.append(best)
        cursor = points[best]
    return order


def two_opt(
    start: Point,
    points: list[Point],
    order: list[int],
    max_passes: int = 8,
) -> list[int]:
    """Improve an open tour with 2-opt segment reversals.

    The tour is anchored at ``start`` (not itself reorderable) and open at
    the far end. Passes repeat until no improving reversal is found or
    ``max_passes`` is reached; every accepted move strictly shortens the
    tour, so termination is guaranteed.
    """
    if len(order) < 3:
        return list(order)
    coords = np.asarray([start] + [points[i] for i in order], dtype=float)
    n = len(coords)
    # Pairwise leg lengths, each from the same ``np.linalg.norm`` call a
    # per-move evaluation would make (the norm of a difference is exactly
    # symmetric), so every comparison below sees identical floats.
    dist = [[0.0] * n for _ in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            dist[a][b] = dist[b][a] = float(
                np.linalg.norm(coords[a] - coords[b])
            )
    # tour[p] indexes ``coords``; tour[0] is the fixed start.
    tour = list(range(n))
    for _ in range(max_passes):
        improved = False
        for i in range(1, n - 2):
            row_prev = dist[tour[i - 1]]
            row_first = dist[tour[i]]
            d_prev = row_prev[tour[i]]
            for j in range(i + 1, n - 1):
                # Reversing tour[i .. j] replaces edges (i-1, i) and
                # (j, j+1) with (i-1, j) and (i, j+1); the open tail end
                # (j == n - 1 handled by the range bound) has no out-edge.
                last, after = tour[j], tour[j + 1]
                d_old = d_prev + dist[last][after]
                d_new = row_prev[last] + row_first[after]
                if d_new < d_old - 1e-9:
                    tour[i : j + 1] = tour[i : j + 1][::-1]
                    row_first = dist[tour[i]]
                    d_prev = row_prev[tour[i]]
                    improved = True
        if not improved:
            break
    return [order[p - 1] for p in tour[1:]]


def partition_points(
    points: list[Point], n_parts: int
) -> list[list[int]]:
    """Split points across UAVs as contiguous east-sorted chunks.

    Sorting by (east, north, up) and chunking keeps each part inside a
    disjoint east-band: ``max(east of part i) <= min(east of part i+1)``,
    so concurrently flying UAVs never interleave laterally. Chunk sizes
    differ by at most one and empty parts only appear when there are
    fewer points than parts.
    """
    if n_parts < 1:
        raise ValueError("n_parts must be >= 1")
    ranked = sorted(range(len(points)), key=lambda i: (points[i], i))
    parts: list[list[int]] = []
    n = len(ranked)
    base, extra = divmod(n, n_parts)
    cursor = 0
    for p in range(n_parts):
        size = base + (1 if p < extra else 0)
        parts.append(ranked[cursor : cursor + size])
        cursor += size
    return parts


def inspection_points(
    area_size_m: float,
    spacing_m: float,
    altitude_m: float,
    field: ObstacleField | None = None,
    margin_m: float = 10.0,
) -> list[Point]:
    """A lattice of inspection points over a square ENU area.

    Points are laid on a regular ``spacing_m`` grid at ``altitude_m``,
    inset by ``margin_m`` from the area edges; points inside inflated
    obstacles are dropped (the planner could only snap them elsewhere).
    """
    if spacing_m <= 0.0:
        raise ValueError("spacing_m must be positive")
    lo, hi = margin_m, area_size_m - margin_m
    if hi <= lo:
        return []
    n = int((hi - lo) // spacing_m) + 1
    coords = [lo + i * spacing_m for i in range(n) if lo + i * spacing_m <= hi]
    pts = [(e, nn, altitude_m) for e in coords for nn in coords]
    if field is not None:
        free = field.inflated.points_free(np.asarray(pts, dtype=float))
        pts = [p for p, ok in zip(pts, free) if ok]
    return pts


def plan_inspection_tours(
    starts: list[Point],
    points: list[Point],
    field: ObstacleField | None = None,
) -> list[list[Point]]:
    """Per-UAV obstacle-routed inspection tours.

    Partitions ``points`` across ``len(starts)`` UAVs, orders each part
    with nearest-neighbour + 2-opt from that UAV's start, then routes the
    tour around obstacles when a ``field`` is given. Returns one flyable
    waypoint list per UAV (empty when its part is empty).
    """
    if not starts:
        raise ValueError("at least one start position is required")
    parts = partition_points(points, len(starts))
    tours: list[list[Point]] = []
    for start, part in zip(starts, parts):
        pts = [points[i] for i in part]
        order = two_opt(start, pts, nearest_neighbor_tour(start, pts))
        tour = [pts[i] for i in order]
        if field is not None and tour:
            tour = route_waypoints(field, start, tour)
        tours.append(tour)
    return tours
