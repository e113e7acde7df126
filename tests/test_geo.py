"""Unit tests for the ENU frame, against the haversine great-circle distance."""

import math

import pytest

from repro.geo import EARTH_RADIUS_M, EnuFrame, GeoPoint


def haversine_m(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle ground distance in metres (altitude ignored): the reference."""
    phi1 = math.radians(a.lat)
    phi2 = math.radians(b.lat)
    dphi = math.radians(b.lat - a.lat)
    dlam = math.radians(b.lon - a.lon)
    h = math.sin(dphi / 2.0) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(h)))


NICOSIA = GeoPoint(35.1856, 33.3823, 0.0)
LIMASSOL = GeoPoint(34.7071, 33.0226, 0.0)


class TestHaversine:
    def test_zero_distance_to_self(self):
        assert haversine_m(NICOSIA, NICOSIA) == 0.0

    def test_symmetry(self):
        assert haversine_m(NICOSIA, LIMASSOL) == pytest.approx(
            haversine_m(LIMASSOL, NICOSIA)
        )

    def test_known_distance_nicosia_limassol(self):
        # Roughly 62 km between the two cities.
        assert haversine_m(NICOSIA, LIMASSOL) == pytest.approx(62_000, rel=0.05)

    def test_small_displacement_matches_flat_earth(self):
        # 0.001 deg latitude is ~111.2 m.
        north = GeoPoint(NICOSIA.lat + 0.001, NICOSIA.lon)
        assert haversine_m(NICOSIA, north) == pytest.approx(111.2, rel=0.01)

    def test_ignores_altitude(self):
        high = NICOSIA._replace(alt=500.0)
        assert haversine_m(NICOSIA, high) == 0.0

    def test_antipodal_is_half_circumference(self):
        a = GeoPoint(0.0, 0.0)
        b = GeoPoint(0.0, 180.0)
        assert haversine_m(a, b) == pytest.approx(math.pi * EARTH_RADIUS_M, rel=1e-9)


class TestEnuFrame:
    def test_origin_maps_to_zero(self):
        frame = EnuFrame(origin=NICOSIA)
        assert frame.to_enu(NICOSIA) == pytest.approx((0.0, 0.0, 0.0))

    def test_roundtrip(self):
        frame = EnuFrame(origin=NICOSIA)
        p = frame.to_geo(150.0, -75.0, 30.0)
        east, north, up = frame.to_enu(p)
        assert east == pytest.approx(150.0, abs=1e-6)
        assert north == pytest.approx(-75.0, abs=1e-6)
        assert up == pytest.approx(30.0, abs=1e-9)

    def test_enu_consistent_with_haversine(self):
        frame = EnuFrame(origin=NICOSIA)
        p = frame.to_geo(300.0, 400.0)
        east, north, _ = frame.to_enu(p)
        assert haversine_m(NICOSIA, p) == pytest.approx(
            math.hypot(east, north), rel=1e-4
        )

    def test_north_displacement(self):
        frame = EnuFrame(origin=NICOSIA)
        north_point = GeoPoint(NICOSIA.lat + 0.001, NICOSIA.lon)
        east, north, _ = frame.to_enu(north_point)
        assert abs(east) < 1e-9
        assert north == pytest.approx(111.2, rel=0.01)

    @pytest.mark.parametrize("range_m", [10.0, 1_000.0, 5_000.0])
    @pytest.mark.parametrize("bearing_deg", [0.0, 45.0, 90.0, 135.0, 180.0, 225.0, 270.0, 315.0])
    def test_local_offsets_match_the_great_circle(self, bearing_deg, range_m):
        # The simulation works in the frame; a geodetic round trip must
        # keep an offset's length and heading within the small-area
        # approximation, whatever the direction.
        frame = EnuFrame(origin=NICOSIA)
        east = range_m * math.sin(math.radians(bearing_deg))
        north = range_m * math.cos(math.radians(bearing_deg))
        point = frame.to_geo(east, north, 25.0)
        back = frame.to_enu(point)
        assert back == pytest.approx((east, north, 25.0), abs=1e-6)
        assert haversine_m(NICOSIA, point) == pytest.approx(range_m, rel=1e-3)

