"""Communication-based localization: RF ranging multilateration.

The Fig. 1 network includes a "Communication-based Localization ConSert"
that "monitors the internal signal and connection states to other nearby
UAVs". This module implements the positioning technique behind it:
inter-UAV RF range measurements (time-of-flight style, with
distance-proportional noise) fused by nonlinear least squares
multilateration. It is the navigation source backing the "Collaborative
Navigation with accuracy <0.75 m" guarantee when vision is unavailable
(night operations, camera loss).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


def least_squares(fun, x0):
    """``scipy.optimize.least_squares``; SciPy loads on first call."""
    from scipy import optimize

    return optimize.least_squares(fun, x0)


@dataclass(frozen=True)
class RangeMeasurement:
    """One RF range from an anchor UAV to the target."""

    anchor_id: str
    anchor_enu: tuple[float, float, float]
    range_m: float
    sigma_m: float
    stamp: float


@dataclass
class RfRangingModel:
    """Simulated inter-UAV RF ranging (UWB/TOF style).

    Noise grows with distance (multipath, clock dilution); ranges beyond
    ``max_range_m`` fail (link budget).
    """

    rng: np.random.Generator
    base_sigma_m: float = 0.3
    relative_sigma: float = 0.01
    max_range_m: float = 300.0

    def measure(
        self,
        anchor_id: str,
        anchor_enu: tuple[float, float, float],
        target_enu: tuple[float, float, float],
        now: float,
    ) -> RangeMeasurement | None:
        """One ranging exchange; None when the link is out of budget."""
        true_range = math.dist(anchor_enu, target_enu)
        if true_range > self.max_range_m or true_range < 1e-9:
            return None
        sigma = math.hypot(self.base_sigma_m, self.relative_sigma * true_range)
        measured = max(0.1, true_range + float(self.rng.normal(0.0, sigma)))
        return RangeMeasurement(
            anchor_id=anchor_id,
            anchor_enu=anchor_enu,
            range_m=measured,
            sigma_m=sigma,
            stamp=now,
        )


@dataclass(frozen=True)
class MultilaterationFix:
    """Output of one multilateration solve."""

    enu: tuple[float, float, float]
    residual_rms_m: float
    n_anchors: int
    converged: bool


@dataclass
class CommLocalizer:
    """Nonlinear least-squares multilateration over range measurements.

    Needs at least 3 anchors for a 2-D+altitude-prior solve or 4 for a
    full 3-D solve; with 3 anchors the altitude is softly constrained to
    the provided prior (UAVs know their barometric altitude well).
    """

    altitude_prior_sigma_m: float = 1.5
    min_anchors: int = 3

    def solve(
        self,
        measurements: list[RangeMeasurement],
        initial_guess: tuple[float, float, float],
        altitude_prior: float | None = None,
    ) -> MultilaterationFix | None:
        """Estimate the target position; None with too few anchors."""
        anchors = {m.anchor_id: m for m in measurements}
        measurements = list(anchors.values())  # one per anchor (latest wins)
        if len(measurements) < self.min_anchors:
            return None

        def residuals(x: np.ndarray) -> np.ndarray:
            out = [
                (math.dist(x, m.anchor_enu) - m.range_m) / m.sigma_m
                for m in measurements
            ]
            if altitude_prior is not None:
                out.append((x[2] - altitude_prior) / self.altitude_prior_sigma_m)
            return np.array(out)

        # Multi-start: the range-only problem has mirror local minima
        # (above/below the anchor plane); try several starts and keep the
        # best fit.
        centroid = np.mean([m.anchor_enu for m in measurements], axis=0)
        guess_z = altitude_prior if altitude_prior is not None else initial_guess[2]
        starts = [
            np.asarray(initial_guess, float),
            np.array([initial_guess[0], initial_guess[1], guess_z]),
            np.array([centroid[0], centroid[1], guess_z]),
            np.array([centroid[0], centroid[1], guess_z - 20.0]),
        ]
        result = None
        best_cost = math.inf
        for start in starts:
            try:
                candidate = least_squares(residuals, start)
            except (ValueError, np.linalg.LinAlgError):
                # Degenerate geometry (e.g. coincident anchors) can make a
                # start fail outright; the remaining starts may still fit.
                continue
            if candidate.cost < best_cost:
                best_cost = candidate.cost
                result = candidate
        if result is None:
            # Every start failed: report a non-converged fix at the guess
            # rather than raising mid-mission.
            return MultilaterationFix(
                enu=tuple(float(v) for v in initial_guess),
                residual_rms_m=math.inf,
                n_anchors=len(measurements),
                converged=False,
            )
        weighted = residuals(result.x)
        # Exclude the prior term from the reported measurement residual.
        n_meas = len(measurements)
        rms = float(
            np.sqrt(np.mean((weighted[:n_meas] * [m.sigma_m for m in measurements]) ** 2))
        )
        return MultilaterationFix(
            enu=tuple(float(v) for v in result.x),
            residual_rms_m=rms,
            n_anchors=n_meas,
            converged=bool(result.success),
        )


@dataclass
class CommLocalizationService:
    """Continuous comm-localization of one target from live anchors.

    Feed anchor positions each epoch; the service ranges to the target,
    keeps a sliding measurement window, and solves when enough anchors
    responded. ``link_ok`` reflects the connection-state monitoring the
    comm-localization ConSert consumes.
    """

    target_id: str
    ranging: RfRangingModel
    window_s: float = 1.5
    measurements: list[RangeMeasurement] = field(default_factory=list)
    last_fix: MultilaterationFix | None = None
    link_up: bool = True

    def update(
        self,
        now: float,
        anchors: dict[str, tuple[float, float, float]],
        target_enu: tuple[float, float, float],
        altitude_prior: float | None = None,
    ) -> MultilaterationFix | None:
        """Range to all anchors, then attempt a solve.

        While the transport reports the link down no new ranging
        exchanges happen (the radio is the ranging instrument); the solve
        then runs on whatever is left inside the sliding window.
        """
        if self.link_up:
            for anchor_id, anchor_enu in anchors.items():
                measurement = self.ranging.measure(
                    anchor_id, anchor_enu, target_enu, now
                )
                if measurement is not None:
                    self.measurements.append(measurement)
        cutoff = now - self.window_s
        self.measurements = [m for m in self.measurements if m.stamp >= cutoff]
        guess = self.last_fix.enu if self.last_fix is not None else target_enu
        solver = CommLocalizer()
        fix = solver.solve(self.measurements, guess, altitude_prior)
        if fix is not None:
            self.last_fix = fix
        return fix

    def set_link_state(self, up: bool) -> None:
        """Feed the transport-level link verdict (e.g. from a
        :class:`~repro.middleware.reliable.ReliableChannel` timeout or a
        :class:`~repro.core.adapters.PeerTelemetryMonitor`). While the
        link is down, ``link_ok`` is False no matter how many recent
        measurements are still inside the sliding window."""
        self.link_up = up

    @property
    def link_ok(self) -> bool:
        """Whether the ConSert guarantee is backed by live connectivity.

        Requires both enough distinct live anchors in the window *and* a
        transport layer that still reports the links up — measurement
        counts alone can lag a blackout by a full window.
        """
        if not self.link_up:
            return False
        return len({m.anchor_id for m in self.measurements}) >= 3
