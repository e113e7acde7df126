"""Unit tests for the SAR search patterns."""

import math

import pytest

from repro.sar.coverage import swath_width_m
from repro.sar.patterns import (
    coverage_radius_profile,
    expanding_square,
    pattern_length_m,
    sector_search,
)

DATUM = (100.0, 100.0)


class TestExpandingSquare:
    def test_starts_at_datum(self):
        path = expanding_square(DATUM, 20.0, max_radius_m=80.0)
        assert path[0] == (100.0, 100.0, 20.0)

    def test_legs_grow(self):
        path = expanding_square(DATUM, 20.0, max_radius_m=100.0)
        lengths = [
            math.dist(a, b) for a, b in zip(path, path[1:])
        ]
        # Leg length is non-decreasing and strictly grows every two legs.
        assert all(b >= a - 1e-9 for a, b in zip(lengths, lengths[1:]))
        assert lengths[-1] > lengths[0]

    def test_stays_roughly_within_radius(self):
        path = expanding_square(DATUM, 20.0, max_radius_m=80.0)
        spacing = swath_width_m(20.0)
        for east, north, _ in path:
            assert math.hypot(east - DATUM[0], north - DATUM[1]) <= 2 * 80.0 + 2 * spacing

    def test_covers_inner_rings_densely(self):
        path = expanding_square(DATUM, 20.0, max_radius_m=100.0)
        profile = coverage_radius_profile(path, DATUM, [10.0, 40.0, 80.0], 20.0)
        assert profile[10.0] == pytest.approx(1.0, abs=0.05)
        assert profile[40.0] > 0.8

    def test_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            expanding_square(DATUM, 20.0, max_radius_m=0.0)

    def test_altitude_constant(self):
        path = expanding_square(DATUM, 35.0, max_radius_m=60.0)
        assert all(wp[2] == 35.0 for wp in path)


class TestSectorSearch:
    def test_passes_through_datum_repeatedly(self):
        path = sector_search(DATUM, 20.0, radius_m=60.0, n_sectors=3)
        datum_hits = sum(
            1 for wp in path if math.hypot(wp[0] - DATUM[0], wp[1] - DATUM[1]) < 1e-6
        )
        assert datum_hits >= 4  # start + one return per sector at least

    def test_stays_within_radius(self):
        path = sector_search(DATUM, 20.0, radius_m=60.0)
        for east, north, _ in path:
            assert math.hypot(east - DATUM[0], north - DATUM[1]) <= 60.0 + 1e-6

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            sector_search(DATUM, 20.0, radius_m=-1.0)
        with pytest.raises(ValueError):
            sector_search(DATUM, 20.0, radius_m=50.0, n_sectors=0)

    def test_denser_at_centre_than_edge(self):
        path = sector_search(DATUM, 20.0, radius_m=80.0, n_sectors=3)
        profile = coverage_radius_profile(path, DATUM, [10.0, 75.0], 20.0)
        assert profile[10.0] >= profile[75.0]

    def test_pattern_length_positive(self):
        path = sector_search(DATUM, 20.0, radius_m=60.0)
        assert pattern_length_m(path) > 6 * 60.0
