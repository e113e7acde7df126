"""Constant-velocity Kalman tracking of the affected UAV.

Sits between the instantaneous collaborative estimates and the landing
controller (the "Fusion" node of the paper's Fig. 3 ROS configuration):
smooths sighting noise and bridges short detection gaps with the velocity
prediction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class ConstantVelocityKalman:
    """6-state (position, velocity) Kalman filter with position measurements."""

    process_noise: float = 0.8
    initial_velocity_var: float = 4.0
    state: np.ndarray | None = None  # [e, n, u, ve, vn, vu]
    covariance: np.ndarray | None = None
    last_time: float | None = None

    def initialize(self, position: tuple[float, float, float], sigma_m: float, now: float) -> None:
        """Start the track from a first position estimate."""
        self.state = np.array([*position, 0.0, 0.0, 0.0], dtype=float)
        self.covariance = np.diag(
            [sigma_m**2] * 3 + [self.initial_velocity_var] * 3
        )
        self.last_time = now

    @property
    def initialized(self) -> bool:
        """Whether the track has been started."""
        return self.state is not None

    def predict(self, now: float) -> np.ndarray:
        """Propagate to ``now``; returns the predicted full state."""
        if not self.initialized:
            raise RuntimeError("initialize() first")
        dt = now - self.last_time
        if dt < 0.0:
            raise ValueError("time went backwards")
        self.last_time = now
        f = np.eye(6)
        f[0, 3] = f[1, 4] = f[2, 5] = dt
        q = np.zeros((6, 6))
        q_pos = 0.25 * dt**4 * self.process_noise
        q_cross = 0.5 * dt**3 * self.process_noise
        q_vel = dt**2 * self.process_noise
        for i in range(3):
            q[i, i] = q_pos
            q[i, i + 3] = q[i + 3, i] = q_cross
            q[i + 3, i + 3] = q_vel
        self.state = f @ self.state
        self.covariance = f @ self.covariance @ f.T + q
        return self.state.copy()

    def update(
        self, position: tuple[float, float, float], sigma_m: float, now: float
    ) -> np.ndarray:
        """Predict to ``now`` then fuse a position measurement."""
        if not self.initialized:
            self.initialize(position, sigma_m, now)
            return self.state.copy()
        self.predict(now)
        h = np.zeros((3, 6))
        h[0, 0] = h[1, 1] = h[2, 2] = 1.0
        r = np.eye(3) * sigma_m**2
        innovation = np.asarray(position) - h @ self.state
        s = h @ self.covariance @ h.T + r
        k = self.covariance @ h.T @ np.linalg.inv(s)
        self.state = self.state + k @ innovation
        self.covariance = (np.eye(6) - k @ h) @ self.covariance
        return self.state.copy()

    @property
    def position(self) -> tuple[float, float, float]:
        """Current position estimate."""
        if not self.initialized:
            raise RuntimeError("initialize() first")
        return tuple(float(x) for x in self.state[:3])
