"""Geodesy primitives shared across the stack.

The paper's Collaborative Localization tool (Sec. III-C) refines UAV
positions "through trigonometric calculations and the Haversine formula".
The simulation works in a local east-north-up (ENU) frame anchored at a
reference point; this module converts between it and geodetic
(lat/lon/alt) coordinates. The tests check the frame against the
haversine great-circle distance.

All angles at the public API are degrees; distances are metres.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

EARTH_RADIUS_M = 6_371_000.0
"""Mean Earth radius (metres)."""

# The factors math.radians / math.degrees multiply by.
_DEG_TO_RAD = math.pi / 180.0
_RAD_TO_DEG = 180.0 / math.pi


class GeoPoint(NamedTuple):
    """A geodetic coordinate: latitude/longitude in degrees, altitude in metres."""

    lat: float
    lon: float
    alt: float = 0.0


@dataclass(frozen=True)
class EnuFrame:
    """Local tangent-plane east-north-up frame anchored at ``origin``.

    Uses the small-area equirectangular approximation, which is accurate to
    millimetres over the few-kilometre extents of a SAR mission.

    The origin's coordinates, ``cos(lat0)`` and ``R·cos(lat0)`` are cached
    at construction as plain attributes, not dataclass fields, so equality,
    hashing and ``repr`` see only ``origin``. The conversions apply
    ``math.radians``/``math.degrees`` as the multiplications CPython
    implements them with, in the textbook formulas' operation order, so
    results are bit-identical to the formulas written out in full.
    """

    origin: GeoPoint

    def __post_init__(self) -> None:
        origin = self.origin
        coslat0 = math.cos(math.radians(origin.lat))
        for name, value in (
            ("_lat0", origin.lat),
            ("_lon0", origin.lon),
            ("_alt0", origin.alt),
            ("_coslat0", coslat0),
            ("_r_coslat0", EARTH_RADIUS_M * coslat0),
        ):
            object.__setattr__(self, name, value)

    def __reduce__(self):
        # Rebuild through __init__ so the cached constants are recomputed
        # rather than pickled.
        return (EnuFrame, (self.origin,))

    def to_enu(self, p: GeoPoint) -> tuple[float, float, float]:
        """Convert a geodetic point to (east, north, up) metres."""
        return (
            (p.lon - self._lon0) * _DEG_TO_RAD * EARTH_RADIUS_M * self._coslat0,
            (p.lat - self._lat0) * _DEG_TO_RAD * EARTH_RADIUS_M,
            p.alt - self._alt0,
        )

    def to_geo(self, east: float, north: float, up: float = 0.0) -> GeoPoint:
        """Convert local (east, north, up) metres back to a geodetic point."""
        return GeoPoint(
            self._lat0 + north / EARTH_RADIUS_M * _RAD_TO_DEG,
            self._lon0 + east / self._r_coslat0 * _RAD_TO_DEG,
            self._alt0 + up,
        )

    def roundtrip(self, east: float, north: float, up: float) -> tuple[float, float, float]:
        """``to_enu(to_geo(east, north, up))`` without building the GeoPoint.

        The ENU position a geodetic receiver reports back: the same
        operations in the same order as the two conversions, so the
        result is bit-identical to them.
        """
        lat0, lon0, alt0 = self._lat0, self._lon0, self._alt0
        return (
            ((lon0 + east / self._r_coslat0 * _RAD_TO_DEG) - lon0)
            * _DEG_TO_RAD * EARTH_RADIUS_M * self._coslat0,
            ((lat0 + north / EARTH_RADIUS_M * _RAD_TO_DEG) - lat0)
            * _DEG_TO_RAD * EARTH_RADIUS_M,
            (alt0 + up) - alt0,
        )
