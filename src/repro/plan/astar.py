"""A* local planner over the inflated occupancy grid.

Plans between ENU points through the configuration-space grid
(:class:`repro.plan.grid.OccupancyGrid3D` after inflation): 26-connected
A* guided by the exact free-space distance of that lattice (the "3D
octile" distance), followed by a greedy straight-line
*shortcut smoother* that removes the grid staircase wherever the direct
segment between two path vertices is free. A fast path skips the search
entirely when the straight start -> goal segment is already free — in
open terrain the planner costs one segment query per leg.

Every segment query goes through the grid's one batched kernel,
:meth:`~repro.plan.grid.OccupancyGrid3D.segments_free`, which samples
each segment exactly as a single-segment query does, so plans are the
same bits whether segments are checked one at a time or together: the
smoother checks all candidate shortcuts from a vertex in one call.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from repro.plan.grid import OccupancyGrid3D, PlanError

#: Hard cap on A* node expansions — a planner bug (or a maliciously
#: dense world) fails loudly instead of hanging the simulation.
MAX_EXPANSIONS = 400_000

#: Cap on the free cells tried as the anchor of an outside endpoint, so
#: an endpoint walled off from the grid costs a bounded number of
#: segment queries on a large grid.
MAX_ANCHOR_TRIES = 2048

#: The 26-neighbourhood with per-move Euclidean costs, precomputed once.
_NEIGHBORS = [
    (di, dj, dk, math.sqrt(di * di + dj * dj + dk * dk))
    for di in (-1, 0, 1)
    for dj in (-1, 0, 1)
    for dk in (-1, 0, 1)
    if (di, dj, dk) != (0, 0, 0)
]

#: The last grid :func:`astar_cells` padded: ``(occupancy bytes, shape,
#: padded bytes)``. Reused only while the occupancy is byte for byte the
#: same, so an in-place edit of the grid is seen by the next search.
_last_padded: tuple[bytes, tuple[int, ...], bytes] | None = None

#: A spare all-``inf`` g-score list, keyed by its length. A search takes
#: it and hands it back after resetting every entry it lowered (the
#: cells in its ``came`` map plus the start), so the next search on a
#: grid of that size needs no full-grid list. One entry at most.
_spare_g_scores: dict[int, list[float]] = {}

#: Weights of the 3D octile distance: with the offset magnitudes sorted
#: ``lo <= mid <= hi``, the cheapest obstacle-free lattice path takes
#: ``lo`` body diagonals, ``mid - lo`` face diagonals and ``hi - mid``
#: axis moves, which costs ``_W_LO * lo + _W_MID * mid + hi``.
_W_LO = math.sqrt(3.0) - math.sqrt(2.0)
_W_MID = math.sqrt(2.0) - 1.0


def astar_cells(
    occupied: np.ndarray,
    start: tuple[int, int, int],
    goal: tuple[int, int, int],
    max_expansions: int = MAX_EXPANSIONS,
) -> list[tuple[int, int, int]] | None:
    """Shortest 26-connected cell path through a boolean grid.

    Returns ``None`` when ``goal`` is unreachable from ``start``; raises
    :class:`PlanError` when the search exceeds ``max_expansions``. Costs
    are Euclidean per move. The heuristic is the 3D octile distance to
    the goal — the exact cost of the cell path through empty space, so
    it never overestimates and never drops by more than a move's cost
    (admissible and consistent): the path is optimal on the lattice, and
    the search expands far fewer cells than a straight-line heuristic,
    which underestimates every path that is not a pure lattice diagonal.

    The search runs on flat row-major indices into a copy of the grid
    padded by one blocked cell on every face, so neighbour expansion
    needs no bounds checks; closed cells are marked in the same buffer.
    Row-major order is lexicographic ``(i, j, k)`` order, so heap ties
    break exactly as they would on cell tuples, and the heuristic is
    computed from integer goal offsets decoded once per expansion — the
    returned path does not depend on the indexing. The padded grid is
    rebuilt only when the occupancy bytes differ from the last search's,
    and the g-score list comes from a pool of reset lists.
    """
    global _last_padded
    if occupied[start] or occupied[goal]:
        return None
    if start == goal:
        return [start]
    _, ny, nz = occupied.shape
    stride_j = nz + 2
    stride_i = (ny + 2) * stride_j
    key = occupied.tobytes()
    cached = _last_padded
    if cached is None or cached[0] != key or cached[1] != occupied.shape:
        padded = np.pad(occupied, 1, constant_values=True).tobytes()
        cached = _last_padded = (key, occupied.shape, padded)
    # 1 = blocked (obstacle, padding, or closed); expanded cells are
    # closed in place.
    blocked = bytearray(cached[2])
    moves = [
        (di * stride_i + dj * stride_j + dk, cost, di, dj, dk)
        for di, dj, dk, cost in _NEIGHBORS
    ]
    gi, gj, gk = (v + 1 for v in goal)
    si, sj, sk = (v + 1 for v in start)
    goal_flat = gi * stride_i + gj * stride_j + gk
    start_flat = si * stride_i + sj * stride_j + sk

    w_lo, w_mid = _W_LO, _W_MID
    push, pop = heapq.heappush, heapq.heappop
    g_score = _spare_g_scores.pop(len(blocked), None) or [math.inf] * len(blocked)
    g_score[start_flat] = 0.0
    came: dict[int, int] = {}
    lo, mid, hi = sorted((abs(si - gi), abs(sj - gj), abs(sk - gk)))
    frontier = [(w_lo * lo + w_mid * mid + hi, start_flat)]
    expansions = 0
    try:
        while frontier:
            _, cell = pop(frontier)
            if blocked[cell]:
                continue
            if cell == goal_flat:
                path = [cell]
                while cell in came:
                    cell = came[cell]
                    path.append(cell)
                path.reverse()
                out = []
                for flat in path:
                    i, rest = divmod(flat, stride_i)
                    j, k = divmod(rest, stride_j)
                    out.append((i - 1, j - 1, k - 1))
                return out
            blocked[cell] = 1
            expansions += 1
            if expansions > max_expansions:
                raise PlanError(
                    f"A* expansion cap (max_expansions={max_expansions}) hit "
                    f"searching from cell {tuple(start)} to {tuple(goal)}"
                )
            # Decoded once per expansion: this cell's offset from the goal,
            # to which each pushed neighbour adds its move.
            ci, rest = divmod(cell, stride_i)
            cj, ck = divmod(rest, stride_j)
            ci, cj, ck = ci - gi, cj - gj, ck - gk
            base = g_score[cell]
            for step, cost, di, dj, dk in moves:
                neighbor = cell + step
                if blocked[neighbor]:
                    continue
                tentative = base + cost
                if tentative < g_score[neighbor]:
                    g_score[neighbor] = tentative
                    came[neighbor] = cell
                    # The neighbour's |goal offset| per axis, sorted into
                    # lo <= mid <= hi by a three-compare network.
                    lo = abs(ci + di)
                    mid = abs(cj + dj)
                    hi = abs(ck + dk)
                    if lo > mid:
                        lo, mid = mid, lo
                    if mid > hi:
                        mid, hi = hi, mid
                        if lo > mid:
                            lo, mid = mid, lo
                    push(
                        frontier,
                        (tentative + (w_lo * lo + w_mid * mid + hi), neighbor),
                    )
        return None
    finally:
        for cell in came:
            g_score[cell] = math.inf
        g_score[start_flat] = math.inf
        _spare_g_scores.clear()
        _spare_g_scores[len(blocked)] = g_score


def shortcut_path(
    grid: OccupancyGrid3D, points: list[tuple[float, float, float]]
) -> list[tuple[float, float, float]]:
    """Greedy straight-line smoothing of a piecewise path.

    From each kept vertex, jump to the farthest later vertex reachable by
    a free straight segment; the result visits a subsequence of the input
    vertices and is never longer than the input path. One
    :meth:`~repro.plan.grid.OccupancyGrid3D.segments_free` call per kept
    vertex tests every candidate ``j >= i + 2``; the largest free one
    wins, else the next vertex — the same choice as trying ``j`` from the
    last vertex downward.
    """
    if len(points) <= 2:
        return list(points)
    arr = np.asarray(points, dtype=float)
    last = len(points) - 1
    out = [points[0]]
    i = 0
    while i < last:
        j = i + 1
        if i + 2 <= last:
            free = grid.segments_free(
                np.broadcast_to(arr[i], (last - i - 1, 3)), arr[i + 2:]
            )
            if free.any():
                j = i + 2 + int(np.flatnonzero(free)[-1])
        out.append(points[j])
        i = j
    return out


def _anchor(
    grid: OccupancyGrid3D, point: tuple[float, float, float]
) -> tuple[float, float, float]:
    """An in-grid free point that ``point`` reaches by a free segment.

    Points already inside the grid pass through unchanged; points outside
    (free by definition — e.g. a waypoint on the area boundary or above
    the obstacle ceiling) are clamped just inside the volume. When the
    clamped point is occupied or the leg to it is blocked, the free cell
    centres are tried nearest to it first, and the first one ``point``
    reaches by a free segment anchors it. Raises :class:`PlanError` when
    none of the :data:`MAX_ANCHOR_TRIES` nearest is reachable that way.
    """
    arr = np.asarray(point, dtype=float)
    origin = np.asarray(grid.origin, dtype=float)
    span = np.asarray(grid.shape, dtype=float) * grid.cell_m
    eps = 1e-6 * grid.cell_m
    clamped = tuple(
        float(v)
        for v in np.minimum(np.maximum(arr, origin + eps), origin + span - eps)
    )
    if grid.segment_free(point, clamped):
        return clamped
    centers = grid.cell_centers(np.argwhere(~grid.occupied))
    order = np.argsort(
        ((centers - np.asarray(clamped)) ** 2).sum(axis=1), kind="stable"
    )
    for k in order[:MAX_ANCHOR_TRIES].tolist():
        anchor = tuple(float(v) for v in centers[k])
        if grid.segment_free(point, anchor):
            return anchor
    raise PlanError(
        f"no free straight leg from {tuple(round(v, 1) for v in point)} "
        f"to any of the {MAX_ANCHOR_TRIES} free cells nearest its entry point"
    )


def plan_path(
    grid: OccupancyGrid3D,
    start: tuple[float, float, float],
    goal: tuple[float, float, float],
) -> list[tuple[float, float, float]]:
    """A collision-free ENU polyline from ``start`` to ``goal``.

    Endpoints inside inflated obstacles are snapped to the nearest free
    cell centre first (the returned path starts/ends at the snapped
    points). Straight-line-free legs return directly; otherwise A* runs
    on the cell lattice and the staircase is shortcut-smoothed. Raises
    :class:`PlanError` when no route exists or the search hits the
    expansion cap.

    The search covers only the grid volume. An endpoint outside it joins
    the route through an in-volume anchor (:func:`_anchor`); when it
    reaches no free anchor by a free segment, the result is
    :class:`PlanError`, even if a route around the volume through free
    outside space exists.
    """
    s = grid.nearest_free(start)
    g = grid.nearest_free(goal)
    if grid.segment_free(s, g):
        return [s, g]
    s_in = _anchor(grid, s)
    g_in = _anchor(grid, g)
    idx, _ = grid.point_indices(np.asarray([s_in, g_in]))
    cells = astar_cells(
        grid.occupied,
        tuple(int(v) for v in idx[0]),
        tuple(int(v) for v in idx[1]),
    )
    if cells is None:
        raise PlanError(
            f"no collision-free route from {tuple(round(v, 1) for v in s)} "
            f"to {tuple(round(v, 1) for v in g)}"
        )
    centers = grid.cell_centers(np.asarray(cells))
    waypoints = [s]
    if s_in != s:
        waypoints.append(s_in)
    waypoints.extend(tuple(float(v) for v in c) for c in centers[1:-1])
    if g_in != g:
        waypoints.append(g_in)
    waypoints.append(g)
    return shortcut_path(grid, waypoints)


def route_waypoints(
    field,
    start: tuple[float, float, float],
    waypoints: list[tuple[float, float, float]],
) -> list[tuple[float, float, float]]:
    """Route a mission waypoint list around a scenario's obstacles.

    Plans each leg on ``field.inflated`` (an
    :class:`~repro.plan.grid.ObstacleField`), concatenating the legs into
    one flyable list that starts *after* ``start`` (the vehicle's current
    position). Waypoints inside inflated obstacles are replaced by their
    nearest free snap; obstacle-free legs pass through unchanged, so
    scenarios without a blocked leg keep their exact waypoint lists.
    """
    out: list[tuple[float, float, float]] = []
    cursor = tuple(float(v) for v in start)
    for waypoint in waypoints:
        leg = plan_path(field.inflated, cursor, waypoint)
        # plan_path may snap a start that sits inside an inflated
        # obstacle (e.g. a base next to a wall); keep the snap point so
        # the flown polyline matches the planned one.
        if leg[0] != cursor:
            out.append(leg[0])
        out.extend(leg[1:])
        cursor = out[-1]
    return out
