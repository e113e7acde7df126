"""Area coverage planning for multi-UAV SAR.

The paper's three UAVs scan a designated area collaboratively (Fig. 4).
We partition the rectangle into per-UAV strips and plan a boustrophedon
(lawnmower) path in each strip whose track spacing follows the camera
swath at the flight altitude — "coordinated strategies to cover large
areas efficiently".
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class CameraConfig:
    """Downward-camera geometry shared by planning and detection gating.

    Coverage plans space their tracks by the swath this camera yields and
    the mission's detection gate uses the *same* swath, so the two can
    never disagree about what "inside the camera footprint" means.
    Loaded from the optional ``"camera"`` scenario block; the defaults
    match the historical module-level constants.
    """

    half_fov_deg: float = 35.0
    overlap: float = 0.15

    def swath_width_m(self, altitude_m: float) -> float:
        """Effective ground swath at ``altitude_m`` for this camera."""
        return swath_width_m(altitude_m, self.half_fov_deg, self.overlap)


def swath_width_m(altitude_m: float, half_fov_deg: float = 35.0, overlap: float = 0.15) -> float:
    """Effective ground swath of the downward camera at ``altitude_m``.

    Twice the half-FOV ground projection, shrunk by the required lateral
    ``overlap`` between adjacent tracks.
    """
    if altitude_m <= 0.0:
        raise ValueError("altitude must be positive")
    if not 0.0 <= overlap < 1.0:
        raise ValueError("overlap must be in [0, 1)")
    full = 2.0 * altitude_m * math.tan(math.radians(half_fov_deg))
    return full * (1.0 - overlap)


def partition_area(
    area_size_m: tuple[float, float], n_uavs: int
) -> list[tuple[tuple[float, float], tuple[float, float]]]:
    """Split the rectangle into ``n_uavs`` equal vertical strips.

    Returns per-UAV ``((east_min, east_max), (north_min, north_max))``.
    """
    if n_uavs < 1:
        raise ValueError("need at least one UAV")
    east_extent, north_extent = area_size_m
    if east_extent <= 0.0 or north_extent <= 0.0:
        raise ValueError("area dimensions must be positive")
    strip = east_extent / n_uavs
    return [
        ((i * strip, (i + 1) * strip), (0.0, north_extent)) for i in range(n_uavs)
    ]


def boustrophedon_path(
    bounds: tuple[tuple[float, float], tuple[float, float]],
    altitude_m: float,
    half_fov_deg: float = 35.0,
    overlap: float = 0.15,
) -> list[tuple[float, float, float]]:
    """Lawnmower waypoints covering ``bounds`` at ``altitude_m``.

    Tracks run north-south, spaced by the camera swath; alternate tracks
    reverse direction. Track positions are centred so coverage reaches
    both east/west edges.
    """
    (east_min, east_max), (north_min, north_max) = bounds
    if east_max <= east_min or north_max <= north_min:
        raise ValueError("degenerate bounds")
    spacing = swath_width_m(altitude_m, half_fov_deg, overlap)
    width = east_max - east_min
    n_tracks = max(1, math.ceil(width / spacing))
    # Centre the tracks within the strip.
    actual_spacing = width / n_tracks
    waypoints: list[tuple[float, float, float]] = []
    for i in range(n_tracks):
        east = east_min + (i + 0.5) * actual_spacing
        if i % 2 == 0:
            waypoints.append((east, north_min, altitude_m))
            waypoints.append((east, north_max, altitude_m))
        else:
            waypoints.append((east, north_max, altitude_m))
            waypoints.append((east, north_min, altitude_m))
    return waypoints


def path_length_m(waypoints: list[tuple[float, float, float]]) -> float:
    """Total length of a waypoint polyline."""
    return sum(
        math.dist(a, b) for a, b in zip(waypoints, waypoints[1:])
    )

