"""Sector patrols for the swarm's leaders.

The search square is cut into vertical strips, one per leader
(:func:`sector_partition`), and each leader loops a boustrophedon sweep
of its strip (:func:`sector_sweep`). The single-UAV parallel-track sweep
lives in :mod:`repro.sar.coverage`.

The sweeps emit ENU waypoints compatible with
:class:`repro.uav.dynamics.WaypointPlan`.
"""

from __future__ import annotations


def sector_partition(
    area_m: float,
    k_sectors: int,
) -> list[tuple[float, float]]:
    """Partition a square ``[0, area] × [0, area]`` into K vertical strips.

    Returns each sector's ``(east_min, east_max)``. Strips (rather than a
    2D tiling) keep leader patrol legs long and turns few, and make the
    sector → leader mapping trivially deterministic: sector ``k`` belongs
    to the ``k``-th leader in sorted order.
    """
    if area_m <= 0.0:
        raise ValueError("area_m must be positive")
    if k_sectors < 1:
        raise ValueError("need at least one sector")
    width = area_m / k_sectors
    return [(k * width, (k + 1) * width) for k in range(k_sectors)]


def sector_sweep(
    area_m: float,
    k_sectors: int,
    sector: int,
    altitude_m: float,
    spacing_m: float,
) -> list[tuple[float, float, float]]:
    """Boustrophedon patrol sweep of one vertical strip of the search area.

    The sweep serpentines north–south across the strip with track spacing
    ``spacing_m`` (for detection work, ~2× the detect radius tiles the
    strip). Leaders loop the returned waypoint list forever, so the last
    leg is laid out to hand over near the first waypoint's side of the
    strip, keeping the loop closed without a long dead transit.
    """
    if spacing_m <= 0.0:
        raise ValueError("spacing_m must be positive")
    east_min, east_max = sector_partition(area_m, k_sectors)[sector]
    # Centre the tracks inside the strip: n tracks at >= spacing apart.
    strip = east_max - east_min
    n_tracks = max(1, int(strip // spacing_m))
    pitch = strip / n_tracks
    waypoints: list[tuple[float, float, float]] = []
    for i in range(n_tracks):
        east = east_min + (i + 0.5) * pitch
        if i % 2 == 0:
            waypoints.append((east, 0.0, altitude_m))
            waypoints.append((east, area_m, altitude_m))
        else:
            waypoints.append((east, area_m, altitude_m))
            waypoints.append((east, 0.0, altitude_m))
    return waypoints
