"""Geometric properties of the SAR search patterns.

The sector partition tiles the search square in equal strips; a leader's
sector sweep never leaves its strip, and lays centred tracks no closer
than its spacing so the whole fleet's tracks sweep the square without a
seam. The camera-driven boustrophedon sweep keeps adjacent parallel
tracks no further apart than the camera swath (otherwise the ground
between tracks is never imaged).
"""

from __future__ import annotations

import math

import pytest

from repro.sar.coverage import boustrophedon_path, swath_width_m
from repro.sar.patterns import sector_partition, sector_sweep

ALTITUDE = 25.0


class TestSectorSweepContainment:
    AREA = 300.0

    @pytest.mark.parametrize("k_sectors", [1, 2, 3, 5])
    def test_waypoints_stay_inside_their_strip(self, k_sectors):
        for sector in range(k_sectors):
            east_min, east_max = sector_partition(self.AREA, k_sectors)[sector]
            path = sector_sweep(
                self.AREA, k_sectors, sector, ALTITUDE, spacing_m=25.0
            )
            assert path
            for east, north, up in path:
                assert east_min - 1e-9 <= east <= east_max + 1e-9
                assert 0.0 <= north <= self.AREA
                assert up == ALTITUDE

    def test_tracks_tile_the_strip_when_spacing_divides(self):
        # 100 m strip at 25 m spacing: four tracks, centred, pitch never
        # wider than declared.
        path = sector_sweep(300.0, 3, 1, ALTITUDE, spacing_m=25.0)
        easts = sorted({wp[0] for wp in path})
        assert len(easts) == 4
        for lo, hi in zip(easts, easts[1:]):
            assert hi - lo <= 25.0 + 1e-9

    def test_serpentine_alternates_direction(self):
        path = sector_sweep(300.0, 3, 0, ALTITUDE, spacing_m=25.0)
        # Consecutive waypoints per track share an east; track ends meet
        # at the same north, so the sweep is flyable without dead legs.
        for (e1, n1, _), (e2, n2, _) in zip(path[1:-1:2], path[2::2]):
            assert n1 == n2 and e1 != e2


class TestTrackSpacingVsSwath:
    @pytest.mark.parametrize(
        "altitude, half_fov, overlap",
        [(15.0, 35.0, 0.15), (20.0, 20.0, 0.3), (30.0, 45.0, 0.0)],
    )
    def test_boustrophedon_tracks_within_swath(self, altitude, half_fov, overlap):
        swath = swath_width_m(altitude, half_fov, overlap)
        bounds = ((0.0, 400.0), (0.0, 300.0))
        path = boustrophedon_path(bounds, altitude, half_fov, overlap)
        easts = sorted({wp[0] for wp in path})
        assert len(easts) == math.ceil(400.0 / swath)
        for lo, hi in zip(easts, easts[1:]):
            assert hi - lo <= swath + 1e-9


class TestSectorPartition:
    @pytest.mark.parametrize("k_sectors", [1, 2, 3, 4, 7, 10])
    def test_strips_tile_the_square_in_equal_widths(self, k_sectors):
        strips = sector_partition(300.0, k_sectors)
        assert len(strips) == k_sectors
        assert strips[0][0] == 0.0
        assert strips[-1][1] == pytest.approx(300.0, abs=1e-9)
        for (_, east_max), (east_min, _) in zip(strips, strips[1:]):
            assert east_min == east_max
        for east_min, east_max in strips:
            assert east_max - east_min == pytest.approx(300.0 / k_sectors)

    @pytest.mark.parametrize(
        "area, k_sectors",
        [(0.0, 3), (-50.0, 3), (300.0, 0), (300.0, -1)],
        ids=["zero-area", "negative-area", "no-sectors", "negative-sectors"],
    )
    def test_rejects_bad_inputs(self, area, k_sectors):
        with pytest.raises(ValueError):
            sector_partition(area, k_sectors)


class TestSectorSweepTracks:
    AREA = 300.0

    def _track_easts(self, path):
        return [wp[0] for wp in path[::2]]

    @pytest.mark.parametrize(
        "k_sectors, spacing, n_tracks",
        [(1, 25.0, 12), (3, 25.0, 4), (3, 30.0, 3), (4, 20.0, 3), (5, 7.0, 8), (2, 60.0, 2)],
    )
    def test_track_count_and_pitch(self, k_sectors, spacing, n_tracks):
        # As many tracks as fit at no less than ``spacing``; the pitch
        # spreads them evenly across the strip.
        east_min, east_max = sector_partition(self.AREA, k_sectors)[0]
        path = sector_sweep(self.AREA, k_sectors, 0, ALTITUDE, spacing_m=spacing)
        easts = self._track_easts(path)
        assert len(path) == 2 * n_tracks
        assert len(easts) == n_tracks
        pitch = (east_max - east_min) / n_tracks
        assert pitch >= spacing - 1e-9
        for lo, hi in zip(easts, easts[1:]):
            assert hi - lo == pytest.approx(pitch)

    @pytest.mark.parametrize("k_sectors", [1, 2, 3, 5])
    def test_every_track_runs_the_full_north_extent(self, k_sectors):
        for sector in range(k_sectors):
            path = sector_sweep(self.AREA, k_sectors, sector, ALTITUDE, spacing_m=25.0)
            for (e1, n1, _), (e2, n2, _) in zip(path[::2], path[1::2]):
                assert e1 == e2
                assert {n1, n2} == {0.0, self.AREA}

    @pytest.mark.parametrize("k_sectors", [1, 2, 3, 5])
    def test_tracks_of_all_sectors_are_evenly_spaced(self, k_sectors):
        # Each strip's tracks are centred, so the gap across a strip
        # boundary equals the pitch inside a strip: the fleet's tracks
        # sweep the whole square with no seam.
        easts = []
        for sector in range(k_sectors):
            path = sector_sweep(self.AREA, k_sectors, sector, ALTITUDE, spacing_m=25.0)
            easts.extend(self._track_easts(path))
        gaps = [hi - lo for lo, hi in zip(easts, easts[1:])]
        assert easts[0] == pytest.approx(gaps[0] / 2 if gaps else self.AREA / 2)
        for gap in gaps:
            assert gap == pytest.approx(gaps[0])

    @pytest.mark.parametrize("spacing", [61.0, 100.0, 1000.0])
    def test_strip_narrower_than_spacing_gets_one_centred_track(self, spacing):
        east_min, east_max = sector_partition(self.AREA, 5)[2]
        path = sector_sweep(self.AREA, 5, 2, ALTITUDE, spacing_m=spacing)
        assert path == [
            ((east_min + east_max) / 2, 0.0, ALTITUDE),
            ((east_min + east_max) / 2, self.AREA, ALTITUDE),
        ]

    @pytest.mark.parametrize("spacing", [0.0, -10.0])
    def test_rejects_non_positive_spacing(self, spacing):
        with pytest.raises(ValueError):
            sector_sweep(self.AREA, 3, 0, ALTITUDE, spacing_m=spacing)
