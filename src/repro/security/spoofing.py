"""GPS spoofing detection by inertial cross-checking.

Complements the network-level IDS: even when the attacker's injected
messages are indistinguishable at the transport layer (e.g. RF-level GPS
spoofing rather than ROS injection), the *physics* betrays the attack.
The detector runs two complementary tests against the IMU — a
self-contained sensor the spoofer cannot touch:

**Innovation test** — compares each GPS fix with the one-epoch inertial
prediction; catches abrupt position jumps.

**Cumulative-divergence test** — sums, over a sliding window, the
per-epoch difference between GPS-reported displacement and IMU-integrated
displacement; catches slowly-ramping spoofs that stay under the
single-epoch threshold (the classic "carry-off" attack, and exactly what
the Fig. 6 ramp does).

The verdict is what the GPS-based Localization ConSert consumes (Fig. 1).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.obs import event


class SpoofVerdict(NamedTuple):
    """Current detector state."""

    spoofed: bool
    innovation_m: float
    threshold_m: float
    cumulative_divergence_m: float
    cumulative_threshold_m: float
    consecutive_hits: int
    stamp: float


@dataclass
class GpsSpoofingDetector:
    """Innovation + cumulative-divergence tests against IMU dead reckoning.

    ``base_threshold_m`` covers GPS noise for the single-epoch innovation
    test; ``drift_rate_mps`` inflates it with the dead-reckoning anchor
    age. ``cumulative_window_s`` / ``cumulative_threshold_m`` parameterise
    the windowed divergence test. ``hits_to_alarm`` consecutive
    exceedances (of either test) are required to declare spoofing,
    rejecting single-epoch multipath glitches.
    """

    base_threshold_m: float = 3.0
    drift_rate_mps: float = 0.15
    cumulative_window_s: float = 10.0
    cumulative_threshold_m: float = 2.5
    hits_to_alarm: int = 3
    # A gap in valid fixes longer than this (e.g. a jamming outage) makes
    # the stored deltas meaningless; the detector re-anchors instead of
    # comparing across the gap.
    max_gap_s: float = 2.0
    anchor: tuple[float, float, float] | None = None
    anchor_time: float | None = None
    _last_update: float | None = field(default=None, repr=False)
    _dr_position: tuple[float, float, float] | None = field(default=None, repr=False)
    _last_gps: tuple[float, float, float] | None = field(default=None, repr=False)
    _last_imu: tuple[float, float, float] | None = field(default=None, repr=False)
    _divergences: deque = field(default_factory=deque, repr=False)
    _hits: int = 0
    spoof_detected: bool = False
    detection_time: float | None = None

    def update(
        self,
        now: float,
        gps_enu: tuple[float, float, float],
        imu_velocity: tuple[float, float, float],
        dt: float,
    ) -> SpoofVerdict:
        """Feed one epoch; returns the current verdict."""
        if (
            self._last_update is not None
            and now - self._last_update > self.max_gap_s
            and not self.spoof_detected
        ):
            # Outage gap: stored deltas span the blackout and would alarm
            # spuriously. Re-anchor on the first fix after the gap.
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
            return SpoofVerdict(
                False, 0.0, self.base_threshold_m, 0.0,
                self.cumulative_threshold_m, 0, now,
            )

        # --- innovation test (abrupt jumps) ------------------------------
        # End-of-epoch velocity integration, matching the platform's
        # implicit-Euler kinematics (position advances by v_new * dt).
        vx, vy, vz = imu_velocity
        px, py, pz = self._dr_position
        self._dr_position = (px + vx * dt, py + vy * dt, pz + vz * dt)
        innovation = math.dist(gps_enu, self._dr_position)
        age = now - (self.anchor_time if self.anchor_time is not None else now)
        threshold = self.base_threshold_m + self.drift_rate_mps * age

        # --- cumulative-divergence test (slow ramps) ----------------------
        # Per epoch: GPS displacement minus IMU displacement.
        gx, gy, gz = gps_enu
        lx, ly, lz = self._last_gps
        divergences = self._divergences
        divergences.append(
            (now, ((gx - lx) - vx * dt, (gy - ly) - vy * dt, (gz - lz) - vz * dt))
        )
        self._last_gps = gps_enu
        self._last_imu = imu_velocity
        cutoff = now - self.cumulative_window_s
        while divergences and divergences[0][0] < cutoff:
            divergences.popleft()
        cx = cy = cz = 0.0
        for _, (dx, dy, dz) in divergences:
            cx += dx
            cy += dy
            cz += dz
        # Keep ``sum``: since Python 3.12 it adds floats with
        # compensation, so ``a + b + c`` would round differently there.
        cumulative = math.sqrt(sum((cx * cx, cy * cy, cz * cz)))

        exceeded = innovation > threshold or cumulative > self.cumulative_threshold_m
        if exceeded:
            self._hits += 1
        else:
            self._hits = 0
            # Healthy epoch: refresh the dead-reckoning anchor to the GPS
            # solution, resetting accumulated IMU drift.
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

        return SpoofVerdict(
            self.spoof_detected, innovation, threshold, cumulative,
            self.cumulative_threshold_m, self._hits, now,
        )

    def reset(self) -> None:
        """Forget all state (e.g. after landing and re-validation)."""
        self.anchor = None
        self.anchor_time = None
        self._dr_position = None
        self._last_gps = None
        self._divergences.clear()
        self._hits = 0
        self._last_update = None
        self._last_imu = None
        self.spoof_detected = False
        self.detection_time = None
