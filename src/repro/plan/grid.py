"""3D occupancy-grid world model for obstacle-aware planning.

The paper's UAVs fly open rural fields; urban SAR adds buildings, masts
and tree lines the fleet must route around. This module is the world
model the :mod:`repro.plan` planners consume: a NumPy boolean voxel grid
over the scenario's ENU search volume, populated from axis-aligned box
and vertical cylinder primitives (the ``"obstacles"`` block of scenario
JSON), with

* conservative *inflation* (Euclidean dilation by the vehicle radius)
  producing the configuration-space grid the A* planner searches,
* vectorised point / segment freeness queries used by both the planner
  and the ``planned_path_clearance`` oracle: one batched segment kernel,
  :meth:`OccupancyGrid3D.segments_free`, behind ``segment_free``,
  ``path_free`` and :func:`blocked_legs`. It samples each segment bit
  for bit as a one-segment query would: the length is the same BLAS dot
  per row (a stacked ``matmul``, not a row-wise sum that rounds apart),
  the t values are ``_unit_samples`` and the points ``a*(1-t) + b*t``,
  all elementwise, and
* :class:`ObstacleIndex` — KD-tree-style nearest-obstacle queries built
  from pure-NumPy uniform cell binning (no SciPy dependency).

Everything here is pure geometry: no imports from the simulation
substrate, so the planner stack sits beside :mod:`repro.uav` rather than
on top of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class PlanError(ValueError):
    """Raised when a planning query cannot be satisfied."""


#: How far past the upper boundary face, in cells, a point still counts
#: as on the face and so belongs to the last cell (see ``point_indices``).
_TOP_FACE_TOL = 1e-9


def _require_finite(point) -> None:
    """Raise :class:`PlanError` unless every coordinate is finite."""
    if not all(math.isfinite(c) for c in point):
        raise PlanError(f"non-finite point {tuple(point)!r}")


def _unit_samples(counts) -> np.ndarray:
    """``np.linspace(0.0, 1.0, n)`` for each ``n >= 2`` in ``counts``
    (an int or an array of them), concatenated, bit for bit, without its
    argument handling: sample ``k`` is ``k * (1 / (n - 1))``, the last 1.0.
    """
    counts = np.atleast_1d(counts)
    first = np.cumsum(counts) - counts
    seg = np.repeat(np.arange(len(counts)), counts)
    t = (np.arange(len(seg)) - first[seg]) * (1.0 / (counts - 1))[seg]
    t[first + counts - 1] = 1.0
    return t


def _offsets_within(radius_cells: float) -> np.ndarray:
    """Integer (di, dj, dk) offsets whose Euclidean norm is <= radius."""
    r = int(math.ceil(radius_cells))
    axis = np.arange(-r, r + 1)
    di, dj, dk = np.meshgrid(axis, axis, axis, indexing="ij")
    mask = di**2 + dj**2 + dk**2 <= radius_cells**2 + 1e-9
    return np.stack([di[mask], dj[mask], dk[mask]], axis=1)


@dataclass
class OccupancyGrid3D:
    """A boolean voxel grid over ``[origin, origin + shape * cell_m)``.

    Cell ``(i, j, k)`` covers the axis-aligned cube whose centre is
    ``origin + (i + 0.5, j + 0.5, k + 0.5) * cell_m``; a cell is occupied
    when its centre lies inside any registered primitive. Points outside
    the grid volume are free by definition — obstacles only exist inside
    the modelled volume.
    """

    origin: tuple[float, float, float]
    cell_m: float
    occupied: np.ndarray
    _index: "ObstacleIndex | None" = field(
        default=None, init=False, repr=False, compare=False
    )

    @classmethod
    def empty(
        cls,
        size_m: tuple[float, float, float],
        cell_m: float,
        origin: tuple[float, float, float] = (0.0, 0.0, 0.0),
    ) -> "OccupancyGrid3D":
        """An all-free grid covering ``size_m`` metres from ``origin``."""
        if cell_m <= 0.0:
            raise PlanError("cell_m must be positive")
        shape = tuple(max(1, int(math.ceil(s / cell_m))) for s in size_m)
        return cls(
            origin=tuple(float(o) for o in origin),
            cell_m=float(cell_m),
            occupied=np.zeros(shape, dtype=bool),
        )

    # -------------------------------------------------------------- shape
    @property
    def shape(self) -> tuple[int, int, int]:
        return self.occupied.shape  # type: ignore[return-value]

    @property
    def size_m(self) -> tuple[float, float, float]:
        """Extent of the modelled volume in metres."""
        return tuple(n * self.cell_m for n in self.shape)  # type: ignore[return-value]

    def cell_centers(self, indices: np.ndarray) -> np.ndarray:
        """ENU centres of an ``(n, 3)`` integer index array."""
        return np.asarray(self.origin) + (indices + 0.5) * self.cell_m

    # --------------------------------------------------------- primitives
    def _axes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-axis cell-centre coordinate vectors."""
        return tuple(  # type: ignore[return-value]
            self.origin[a] + (np.arange(self.shape[a]) + 0.5) * self.cell_m
            for a in range(3)
        )

    def add_box(
        self,
        min_corner: tuple[float, float, float],
        max_corner: tuple[float, float, float],
    ) -> None:
        """Occupy every cell whose centre lies inside the box."""
        if any(hi <= lo for lo, hi in zip(min_corner, max_corner)):
            raise PlanError(
                f"degenerate box: min {min_corner!r} must be < max "
                f"{max_corner!r} on every axis"
            )
        xs, ys, zs = self._axes()
        mx = (xs >= min_corner[0]) & (xs <= max_corner[0])
        my = (ys >= min_corner[1]) & (ys <= max_corner[1])
        mz = (zs >= min_corner[2]) & (zs <= max_corner[2])
        self.occupied |= (
            mx[:, None, None] & my[None, :, None] & mz[None, None, :]
        )
        self._index = None

    def add_cylinder(
        self,
        center: tuple[float, float],
        radius_m: float,
        height_m: float,
        base_u: float = 0.0,
    ) -> None:
        """Occupy a vertical cylinder footprint from ``base_u`` upward."""
        if radius_m <= 0.0 or height_m <= 0.0:
            raise PlanError("cylinder radius and height must be positive")
        xs, ys, zs = self._axes()
        footprint = (
            (xs[:, None] - center[0]) ** 2 + (ys[None, :] - center[1]) ** 2
            <= radius_m**2
        )
        mz = (zs >= base_u) & (zs <= base_u + height_m)
        self.occupied |= footprint[:, :, None] & mz[None, None, :]
        self._index = None

    # ------------------------------------------------------------ queries
    def point_indices(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Cell indices of ``(n, 3)`` points plus an in-bounds mask."""
        coords = np.asarray(points, dtype=float).reshape(-1, 3).T
        idx, inside = self._cell_indices(np.ascontiguousarray(coords))
        return idx.T, inside

    def _cell_indices(self, coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`point_indices` on axis-major ``(3, n)`` coordinates: the
        ``(3, n)`` cell indices and the ``(n,)`` in-bounds mask. Axis-major
        rows keep every NumPy pass on one long contiguous run."""
        shape = np.asarray(self.shape)[:, None]
        rel = (coords - np.asarray(self.origin)[:, None]) / self.cell_m
        idx = np.floor(rel).astype(int)
        # The grid volume is closed: a point exactly on the upper boundary
        # face (e.g. a waypoint at the search-area edge) belongs to the
        # last cell, not to the free outside.
        at_top = (idx >= shape) & (rel <= shape + _TOP_FACE_TOL)
        idx = np.where(at_top, shape - 1, idx)
        inside = ((idx >= 0) & (idx < shape)).all(axis=0)
        return idx, inside

    def is_free(self, point: tuple[float, float, float]) -> bool:
        """Whether a single point lies in free space (outside = free).

        :meth:`point_indices`' rule, one axis at a time in scalar Python.
        Raises :class:`PlanError` for a non-finite point.
        """
        _require_finite(point)
        ijk = []
        for p, o, n in zip(point, self.origin, self.occupied.shape):
            rel = (p - o) / self.cell_m
            i = math.floor(rel)
            if i >= n:
                if not rel <= n + _TOP_FACE_TOL:
                    return True
                i = n - 1
            elif i < 0:
                return True
            ijk.append(i)
        return not self.occupied[tuple(ijk)]

    def points_free(self, points: np.ndarray) -> np.ndarray:
        """Vectorised freeness of ``(n, 3)`` points."""
        idx, inside = self.point_indices(points)
        free = np.ones(len(idx), dtype=bool)
        if inside.any():
            clipped = idx[inside]
            free[inside] = ~self.occupied[
                clipped[:, 0], clipped[:, 1], clipped[:, 2]
            ]
        return free

    def segments_free(self, starts, ends) -> np.ndarray:
        """Whether each straight segment ``starts[i] -> ends[i]`` stays in
        free space, for ``(m, 3)`` endpoint arrays, in one NumPy pass.

        Each segment is sampled at half-cell resolution (endpoints
        included), which cannot skip a full occupied cell. Raises
        :class:`PlanError` for a non-finite endpoint. Empty input gives
        an empty array.
        """
        a = np.asarray(starts, dtype=float).reshape(-1, 3)
        b = np.asarray(ends, dtype=float).reshape(-1, 3)
        if len(a) == 0:
            return np.zeros(0, dtype=bool)
        finite = np.isfinite(a).all(axis=1) & np.isfinite(b).all(axis=1)
        if not finite.all():
            bad = int(np.argmin(finite))
            point = a[bad] if not np.isfinite(a[bad]).all() else b[bad]
            raise PlanError(f"non-finite point {tuple(point.tolist())!r}")
        d = b - a
        # Each length is ``math.sqrt(d.dot(d))``, what ``np.linalg.norm``
        # gives for one real vector. A stacked 1x3 @ 3x1 ``matmul`` calls
        # that same BLAS dot per row; ``(d * d).sum(axis=1)`` would not,
        # and rounds apart wherever the BLAS dot fuses multiply and add.
        length = np.sqrt((d[:, None, :] @ d[:, :, None])[:, 0, 0])
        # ``max(2, ceil(length / half) + 1)``, exact in float below 2**53.
        counts = np.maximum(
            np.ceil(length / (0.5 * self.cell_m)) + 1.0, 2.0
        ).astype(np.int64)
        t = _unit_samples(counts)
        points = (
            np.repeat(a.T, counts, axis=1) * (1.0 - t)
            + np.repeat(b.T, counts, axis=1) * t
        )
        idx, inside = self._cell_indices(points)
        hit = idx[:, inside]
        blocked = np.zeros(len(t), dtype=bool)
        blocked[inside] = self.occupied[hit[0], hit[1], hit[2]]
        return ~np.logical_or.reduceat(blocked, np.cumsum(counts) - counts)

    def segment_free(
        self,
        a: tuple[float, float, float],
        b: tuple[float, float, float],
    ) -> bool:
        """Whether the straight segment ``a -> b`` stays in free space
        (:meth:`segments_free` for one segment)."""
        return bool(self.segments_free([a], [b])[0])

    def path_free(self, waypoints: list[tuple[float, float, float]]) -> bool:
        """Whether every leg of a waypoint polyline is collision-free."""
        return not blocked_legs(self, waypoints)

    def nearest_free(
        self, point: tuple[float, float, float]
    ) -> tuple[float, float, float]:
        """``point`` itself when free, else the nearest free cell centre."""
        if self.is_free(point):
            return tuple(float(c) for c in point)
        free_idx = np.argwhere(~self.occupied)
        if len(free_idx) == 0:
            raise PlanError("grid is fully occupied; no free space to plan in")
        centers = self.cell_centers(free_idx)
        best = int(np.argmin(((centers - np.asarray(point)) ** 2).sum(axis=1)))
        return tuple(float(c) for c in centers[best])

    # ---------------------------------------------------------- inflation
    def inflate(self, radius_m: float) -> "OccupancyGrid3D":
        """A copy with obstacles dilated by ``radius_m`` (C-space grid).

        Dilation is conservative: the effective radius gets half a cell
        diagonal added so every point within ``radius_m`` of an occupied
        cell centre lands in an inflated cell (a bare ``radius_m`` smaller
        than the cell size would otherwise dilate by *nothing*), and it is
        never less than one cell, so every face neighbour of an occupied
        cell is inflated even at ``radius_m = 0``. That floor is what
        makes a straight segment from anywhere in one inflated-free cell
        to the centre of an adjacent one raw-safe: every cell such a
        segment can touch is a face neighbour of one of its two ends, so
        a diagonal move can never slip past a raw-occupied side cell.
        """
        if radius_m < 0.0:
            raise PlanError("inflation radius must be non-negative")
        grown = self.occupied.copy()
        if self.occupied.any():
            effective = max(1.0, radius_m / self.cell_m + math.sqrt(3.0) / 2.0)
            for di, dj, dk in _offsets_within(effective):
                if di == dj == dk == 0:
                    continue
                shifted = np.zeros_like(self.occupied)
                src = [slice(None)] * 3
                dst = [slice(None)] * 3
                for axis, d in enumerate((di, dj, dk)):
                    if d > 0:
                        src[axis], dst[axis] = slice(0, -d), slice(d, None)
                    elif d < 0:
                        src[axis], dst[axis] = slice(-d, None), slice(0, d)
                shifted[tuple(dst)] = self.occupied[tuple(src)]
                grown |= shifted
        return OccupancyGrid3D(
            origin=self.origin, cell_m=self.cell_m, occupied=grown
        )

    # --------------------------------------------------------- clearances
    def clearance_m(self, points: np.ndarray) -> np.ndarray:
        """Distance from each ``(n, 3)`` point to the nearest occupied
        cell centre (``inf`` when the grid holds no obstacles)."""
        if self._index is None:
            occ = np.argwhere(self.occupied)
            self._index = ObstacleIndex(
                self.cell_centers(occ) if len(occ) else np.empty((0, 3)),
                bin_m=max(4.0 * self.cell_m, 1e-9),
            )
        return self._index.nearest_distance(points)


def blocked_legs(
    grid: OccupancyGrid3D, points: list[tuple[float, float, float]]
) -> list[int]:
    """Indices ``i``, ascending, of the polyline legs ``points[i] ->
    points[i + 1]`` that cross an occupied cell of ``grid``.

    One :meth:`OccupancyGrid3D.segments_free` call checks every leg; the
    planner-ablation clearance block and the harness
    ``planned_path_clearance`` oracle both report through it.
    """
    if len(points) < 2:
        return []
    free = grid.segments_free(points[:-1], points[1:])
    return np.flatnonzero(~free).tolist()


class ObstacleIndex:
    """Nearest-neighbour queries over a 3D point cloud via cell binning.

    A KD-tree substitute built from NumPy only: points are hashed into
    uniform cubic bins of side ``bin_m``; a query walks outward over bin
    *shells* and stops once no unseen shell can hold a closer point —
    the same pruning argument a KD-tree makes, traded for O(1) bin
    lookups. Exact (not approximate) nearest distances.
    """

    def __init__(self, points: np.ndarray, bin_m: float) -> None:
        if bin_m <= 0.0:
            raise PlanError("bin_m must be positive")
        self.bin_m = float(bin_m)
        self.points = np.asarray(points, dtype=float).reshape(-1, 3)
        self._bins: dict[tuple[int, int, int], np.ndarray] = {}
        if len(self.points):
            keys = np.floor(self.points / self.bin_m).astype(int)
            order = np.lexsort((keys[:, 2], keys[:, 1], keys[:, 0]))
            keys, pts = keys[order], self.points[order]
            boundaries = np.flatnonzero(np.any(np.diff(keys, axis=0), axis=1)) + 1
            for chunk_keys, chunk in zip(
                np.split(keys, boundaries), np.split(pts, boundaries)
            ):
                self._bins[tuple(int(v) for v in chunk_keys[0])] = chunk

    def _shell(self, center: tuple[int, int, int], r: int) -> list[np.ndarray]:
        """Point arrays of every non-empty bin on shell ``r`` (Chebyshev)."""
        cx, cy, cz = center
        found = []
        if r == 0:
            chunk = self._bins.get(center)
            return [chunk] if chunk is not None else []
        for dx in range(-r, r + 1):
            for dy in range(-r, r + 1):
                for dz in range(-r, r + 1):
                    if max(abs(dx), abs(dy), abs(dz)) != r:
                        continue
                    chunk = self._bins.get((cx + dx, cy + dy, cz + dz))
                    if chunk is not None:
                        found.append(chunk)
        return found

    def nearest_distance(self, queries: np.ndarray) -> np.ndarray:
        """Exact distance from each query point to its nearest point."""
        queries = np.asarray(queries, dtype=float).reshape(-1, 3)
        out = np.full(len(queries), np.inf)
        if not self._bins:
            return out
        max_shell = max(
            max(abs(k) for k in key) for key in self._bins
        ) + 1
        for qi, q in enumerate(queries):
            center = tuple(int(v) for v in np.floor(q / self.bin_m))
            best = np.inf
            r = 0
            while True:
                # Any point in an unseen shell >= r is at least
                # (r - 1) * bin_m away from q; once that exceeds the
                # best-so-far the search is complete.
                if best < np.inf and (r - 1) * self.bin_m > best:
                    break
                span = max(abs(c) for c in center) + max_shell
                if r > span:
                    break
                for chunk in self._shell(center, r):
                    d = float(np.min(np.linalg.norm(chunk - q, axis=1)))
                    best = min(best, d)
                r += 1
            out[qi] = best
        return out


@dataclass
class ObstacleField:
    """A scenario's obstacle model: raw occupancy plus the inflated
    configuration-space grid planners search.

    ``grid`` is ground truth (what the ``planned_path_clearance`` oracle
    checks against); ``inflated`` grows every obstacle by ``inflation_m``
    so a path through inflated free space keeps at least that clearance
    margin from raw occupancy.
    """

    grid: OccupancyGrid3D
    inflated: OccupancyGrid3D
    inflation_m: float

    @classmethod
    def build(
        cls,
        size_m: tuple[float, float, float],
        cell_m: float,
        boxes: list[tuple[tuple[float, float, float], tuple[float, float, float]]],
        cylinders: list[tuple[tuple[float, float], float, float]],
        inflation_m: float,
    ) -> "ObstacleField":
        """Populate a grid from primitive lists and inflate it once."""
        grid = OccupancyGrid3D.empty(size_m, cell_m)
        for min_corner, max_corner in boxes:
            grid.add_box(min_corner, max_corner)
        for center, radius, height in cylinders:
            grid.add_cylinder(center, radius, height)
        return cls(
            grid=grid,
            inflated=grid.inflate(inflation_m),
            inflation_m=float(inflation_m),
        )
