"""Scalar 2D point-mass kinematics for swarm-scale fleets.

The full vectorized fleet engine (:mod:`repro.uav.fleet`) carries
batteries, sensors, and fault state the swarm-sizing workload does not
need; what that workload *does* need is moving its K + K·ρ UAVs toward
per-UAV targets cheaply, with exact arrival clamping (a UAV reaches its
target in the tick it would overshoot — no oscillation around the goal,
which matters because the tasking protocol keys "arrived" off it).

State is per-UAV Python floats (``x``, ``y``, ``tx``, ``ty``, ``speed``,
``has_target``), read and written directly by the swarm simulation.
Every swarm preset flies at most 136 UAVs, and at that size a NumPy
structure-of-arrays spends more in per-call overhead (item writes,
0-d ufuncs, boolean masks) than its vector arithmetic saves.

The arithmetic is the same IEEE operations as the array form it
replaced, so trajectories are bit for bit unchanged, with one rule:
distances go through **one** ``np.hypot`` over the whole fleet per
:meth:`SwarmKinematics.step`, never ``math.hypot``, which rounds
differently from ``np.hypot`` on some offsets. "At the target" is exact
equality of target and position, the cheap form of ``hypot == 0.0``
(a hypot is zero only when both offsets are).

Frozen (dead) UAVs simply stop being stepped: clear their target and
their position stays put, which is what a crashed airframe does from the
bus's point of view.
"""

from __future__ import annotations

import numpy as np


class SwarmKinematics:
    """Per-UAV float positions + constant-speed target seeking."""

    def __init__(self, positions, speeds) -> None:
        pos = np.asarray(positions, dtype=np.float64)
        if pos.ndim != 2 or pos.shape[1] != 2:
            raise ValueError("positions must be (N, 2)")
        speed = np.asarray(speeds, dtype=np.float64)
        if speed.shape != (pos.shape[0],):
            raise ValueError("speeds must be (N,)")
        self.x: list[float] = pos[:, 0].tolist()
        self.y: list[float] = pos[:, 1].tolist()
        self.speed: list[float] = speed.tolist()
        self.tx = list(self.x)
        self.ty = list(self.y)
        self.has_target = [False] * len(self.x)

    @property
    def n(self) -> int:
        return len(self.x)

    def set_target(self, index: int, target: tuple[float, float]) -> None:
        self.tx[index] = float(target[0])
        self.ty[index] = float(target[1])
        self.has_target[index] = True

    def clear_target(self, index: int) -> None:
        self.has_target[index] = False

    def at_target(self, index: int) -> bool:
        """Whether UAV ``index`` sits exactly on its (possibly cleared) target."""
        return self.tx[index] == self.x[index] and self.ty[index] == self.y[index]

    def step(self, dt: float) -> list[int]:
        """Advance every targeted UAV by ``speed * dt`` toward its target.

        Returns the ascending indices of the UAVs that *arrived this tick*
        (their remaining distance was ≤ one tick of travel; position
        snaps to the target exactly). Arrived UAVs keep their target
        until the caller clears or replaces it, but don't move further.
        """
        x, y, tx, ty = self.x, self.y, self.tx, self.ty
        dx = [t - p for t, p in zip(tx, x)]
        dy = [t - p for t, p in zip(ty, y)]
        dist = np.hypot(dx, dy).tolist()
        speed = self.speed
        arrived = []
        for i, targeted in enumerate(self.has_target):
            d = dist[i]
            if not (targeted and d > 0.0):
                continue
            reach = speed[i] * dt
            if d <= reach:
                x[i] = tx[i]
                y[i] = ty[i]
                arrived.append(i)
            else:
                scale = reach / d
                x[i] += dx[i] * scale
                y[i] += dy[i] * scale
        return arrived

    def distances_from(self, index: int, points: np.ndarray) -> np.ndarray:
        """Distances from UAV ``index`` to each row of ``points`` (M, 2)."""
        points = np.asarray(points, dtype=np.float64)
        return np.hypot(points[:, 0] - self.x[index], points[:, 1] - self.y[index])
