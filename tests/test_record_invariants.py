"""Invariants of the hot-path records and the cached ENU frame.

The per-step records are built with :func:`repro.records.frozen_record`
instead of their generated ``__init__``, and :class:`repro.geo.EnuFrame`
caches its trigonometric constants. Neither may be observable: records
must equal, hash and stay frozen like constructor-built ones, and the
frame must compare, hash, print, pickle and convert exactly as the plain
one-field dataclass with the textbook formulas did.
"""

from __future__ import annotations

import copy
import dataclasses
import math
import pickle
import random

import pytest

from repro.geo import EARTH_RADIUS_M, EnuFrame, GeoPoint
from repro.middleware.rosbus import Message
from repro.records import frozen_record
from repro.uav.sensors import GpsFix
from repro.uav.uav import Telemetry

POINT = {"lat": 35.1456, "lon": 33.4299, "alt": 12.5}
FIX = {
    "point": GeoPoint(**POINT),
    "num_satellites": 9,
    "hdop": 0.93,
    "valid": True,
    "stamp": 4.5,
}
TELEMETRY = {
    "uav_id": "uav1",
    "stamp": 4.5,
    "mode": "mission",
    "position_enu": (1.0, 2.0, 3.0),
    "velocity_enu": (0.5, 0.25, 0.0),
    "gps": GpsFix(**FIX),
    "imu_velocity": (0.49, 0.26, 0.01),
    "battery_soc": 0.87,
    "battery_temp_c": 27.3,
    "camera_health": 1.0,
    "wind_mps": 2.1,
}
MESSAGE = {
    "topic": "/uav1/telemetry",
    "data": "payload",
    "sender": "uav1",
    "origin": "uav1",
    "seq": 7,
    "stamp": 4.5,
}
RECORDS = [
    (GeoPoint, POINT),
    (GpsFix, FIX),
    (Telemetry, TELEMETRY),
    (Message, MESSAGE),
]
IDS = [cls.__name__ for cls, _ in RECORDS]


@pytest.mark.parametrize("cls,values", RECORDS, ids=IDS)
def test_fast_record_equals_constructed_record(cls, values):
    assert [f.name for f in dataclasses.fields(cls)] == list(values)
    fast = frozen_record(cls, dict(values))
    slow = cls(**values)
    assert type(fast) is cls
    assert fast == slow and slow == fast
    assert hash(fast) == hash(slow)
    assert repr(fast) == repr(slow)
    assert dataclasses.asdict(fast) == dataclasses.asdict(slow)
    assert vars(fast) == vars(slow)
    assert fast != frozen_record(cls, {**values, "stamp" if "stamp" in values else "alt": -1.0})


@pytest.mark.parametrize("cls,values", RECORDS, ids=IDS)
def test_fast_record_is_frozen(cls, values):
    fast = frozen_record(cls, dict(values))
    name = next(iter(values))
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(fast, name, None)
    with pytest.raises(dataclasses.FrozenInstanceError):
        fast.extra = 1
    assert getattr(fast, name) == values[name]


ORIGIN = GeoPoint(35.1456, 33.4299, 7.0)


class TestEnuFrameIdentity:
    def test_only_origin_is_a_field(self):
        assert [f.name for f in dataclasses.fields(EnuFrame)] == ["origin"]

    def test_equality_and_hash(self):
        a, b = EnuFrame(ORIGIN), EnuFrame(GeoPoint(35.1456, 33.4299, 7.0))
        assert a == b and hash(a) == hash(b)
        assert hash(a) == hash((ORIGIN,))  # the generated frozen-dataclass hash
        assert a != EnuFrame(GeoPoint(35.1456, 33.4299, 8.0))
        assert len({a, b}) == 1

    def test_repr(self):
        assert repr(EnuFrame(ORIGIN)) == (
            "EnuFrame(origin=GeoPoint(lat=35.1456, lon=33.4299, alt=7.0))"
        )

    def test_pickle_and_copy_round_trip(self):
        frame = EnuFrame(ORIGIN)
        for clone in (
            pickle.loads(pickle.dumps(frame)),
            copy.copy(frame),
            copy.deepcopy(frame),
            dataclasses.replace(frame),
        ):
            assert clone == frame and hash(clone) == hash(frame)
            assert clone.to_enu(GeoPoint(35.15, 33.43, 9.0)) == frame.to_enu(
                GeoPoint(35.15, 33.43, 9.0)
            )
            assert clone.to_geo(10.0, -4.0, 1.0) == frame.to_geo(10.0, -4.0, 1.0)

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            EnuFrame(ORIGIN).origin = GeoPoint(0.0, 0.0)


def _textbook_to_enu(frame, p):
    lat0 = math.radians(frame.origin.lat)
    east = math.radians(p.lon - frame.origin.lon) * EARTH_RADIUS_M * math.cos(lat0)
    north = math.radians(p.lat - frame.origin.lat) * EARTH_RADIUS_M
    return east, north, p.alt - frame.origin.alt


def _textbook_to_geo(frame, east, north, up):
    lat0 = math.radians(frame.origin.lat)
    lat = frame.origin.lat + math.degrees(north / EARTH_RADIUS_M)
    lon = frame.origin.lon + math.degrees(east / (EARTH_RADIUS_M * math.cos(lat0)))
    return lat, lon, frame.origin.alt + up


def _hex(values) -> list[str]:
    return [float(v).hex() for v in values]


def test_conversions_hex_match_textbook_formulas():
    rng = random.Random(20250417)
    for _ in range(1000):
        origin = GeoPoint(
            rng.uniform(-80.0, 80.0), rng.uniform(-180.0, 180.0), rng.uniform(-50.0, 500.0)
        )
        frame = EnuFrame(origin)
        p = GeoPoint(
            frame.origin.lat + rng.uniform(-0.05, 0.05),
            frame.origin.lon + rng.uniform(-0.05, 0.05),
            rng.uniform(-50.0, 500.0),
        )
        assert _hex(frame.to_enu(p)) == _hex(_textbook_to_enu(frame, p))
        east, north, up = (rng.uniform(-5e3, 5e3) for _ in range(3))
        geo = frame.to_geo(east, north, up)
        assert _hex((geo.lat, geo.lon, geo.alt)) == _hex(
            _textbook_to_geo(frame, east, north, up)
        )
