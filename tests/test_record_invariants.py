"""Invariants of the hot-path records and the cached ENU frame.

The per-step records (``GeoPoint``, ``GpsFix``, ``Telemetry``,
``Message``, ``SpoofVerdict``, ``ReliabilityAssessment``) are
``typing.NamedTuple`` classes that replaced frozen dataclasses. What the dataclasses promised still holds:
the same fields in the same order with the same defaults, the same
``repr``, equal records hashing equally, no attribute assignment, and
pickling and copying. Retained telemetry holds no mutable object the
collector must keep scanning. :class:`repro.geo.EnuFrame` caches its
trigonometric constants, and it must compare, hash, print, pickle and
convert exactly as the plain one-field dataclass with the textbook
formulas did.
"""

from __future__ import annotations

import copy
import dataclasses
import gc
import math
import pickle
import random

import numpy as np
import pytest

from repro.experiments.common import build_three_uav_world
from repro.geo import EARTH_RADIUS_M, EnuFrame, GeoPoint
from repro.middleware.rosbus import Message
from repro.safedrones.monitor import ReliabilityAssessment, ReliabilityLevel
from repro.security.spoofing import SpoofVerdict
from repro.uav.sensors import GpsFix, GpsSensor
from repro.uav.uav import Telemetry

POINT = GeoPoint(35.1456, 33.4299, 12.5)
FIX = GpsFix(POINT, 9, 0.93, True, 4.5)
TELEMETRY = Telemetry(
    "uav1", 4.5, "mission", (1.0, 2.0, 3.0), (0.5, 0.25, 0.0), FIX,
    (0.49, 0.26, 0.01), 0.87, 27.3, 1.0, 2.1,
)
MESSAGE = Message("/uav1/telemetry", "payload", "uav1", "uav1", 7, 4.5)
VERDICT = SpoofVerdict(False, 0.25, 3.0, 0.125, 2.5, 0, 4.5)
ASSESSMENT = ReliabilityAssessment(
    4.5, 0.25, 0.125, 0.0625, 0.03125, ReliabilityLevel.MEDIUM, True, False,
)

#: record, the frozen dataclass's field names in declaration order, its
#: defaults, and the repr it printed.
RECORDS = [
    (
        POINT, ["lat", "lon", "alt"], {"alt": 0.0},
        "GeoPoint(lat=35.1456, lon=33.4299, alt=12.5)",
    ),
    (
        FIX, ["point", "num_satellites", "hdop", "valid", "stamp"], {},
        "GpsFix(point=GeoPoint(lat=35.1456, lon=33.4299, alt=12.5), "
        "num_satellites=9, hdop=0.93, valid=True, stamp=4.5)",
    ),
    (
        TELEMETRY,
        [
            "uav_id", "stamp", "mode", "position_enu", "velocity_enu", "gps",
            "imu_velocity", "battery_soc", "battery_temp_c", "camera_health",
            "wind_mps",
        ],
        {},
        "Telemetry(uav_id='uav1', stamp=4.5, mode='mission', "
        "position_enu=(1.0, 2.0, 3.0), velocity_enu=(0.5, 0.25, 0.0), "
        "gps=GpsFix(point=GeoPoint(lat=35.1456, lon=33.4299, alt=12.5), "
        "num_satellites=9, hdop=0.93, valid=True, stamp=4.5), "
        "imu_velocity=(0.49, 0.26, 0.01), battery_soc=0.87, "
        "battery_temp_c=27.3, camera_health=1.0, wind_mps=2.1)",
    ),
    (
        MESSAGE, ["topic", "data", "sender", "origin", "seq", "stamp"], {},
        "Message(topic='/uav1/telemetry', data='payload', sender='uav1', "
        "origin='uav1', seq=7, stamp=4.5)",
    ),
    (
        VERDICT,
        [
            "spoofed", "innovation_m", "threshold_m", "cumulative_divergence_m",
            "cumulative_threshold_m", "consecutive_hits", "stamp",
        ],
        {},
        "SpoofVerdict(spoofed=False, innovation_m=0.25, threshold_m=3.0, "
        "cumulative_divergence_m=0.125, cumulative_threshold_m=2.5, "
        "consecutive_hits=0, stamp=4.5)",
    ),
    (
        ASSESSMENT,
        [
            "stamp", "failure_probability", "battery_pof", "propulsion_pof",
            "processor_pof", "level", "battery_fault_detected", "abort_recommended",
        ],
        {},
        "ReliabilityAssessment(stamp=4.5, failure_probability=0.25, "
        "battery_pof=0.125, propulsion_pof=0.0625, processor_pof=0.03125, "
        "level=<ReliabilityLevel.MEDIUM: 'medium'>, battery_fault_detected=True, "
        "abort_recommended=False)",
    ),
]
IDS = [type(record).__name__ for record, *_ in RECORDS]
HOT_RECORDS = tuple(type(record) for record, *_ in RECORDS)


@pytest.mark.parametrize("record,names,defaults,text", RECORDS, ids=IDS)
def test_fields_defaults_and_repr_are_the_dataclasses(record, names, defaults, text):
    cls = type(record)
    assert list(cls._fields) == names
    assert cls._field_defaults == defaults
    assert repr(record) == text
    rebuilt = cls(**dict(zip(names, record)))
    assert rebuilt == record and hash(rebuilt) == hash(record)
    assert repr(rebuilt) == text


@pytest.mark.parametrize("record,names,defaults,text", RECORDS, ids=IDS)
def test_equal_records_hash_equally(record, names, defaults, text):
    twin = copy.deepcopy(record)
    assert twin == record and twin is not record
    assert hash(twin) == hash(record)
    # The frozen dataclass hashed the tuple of its fields.
    assert hash(record) == hash(tuple(getattr(record, name) for name in names))
    changed = record._replace(stamp=-1.0) if "stamp" in names else record._replace(alt=-1.0)
    assert changed != record


@pytest.mark.parametrize("record,names,defaults,text", RECORDS, ids=IDS)
def test_records_are_read_only(record, names, defaults, text):
    with pytest.raises(AttributeError):
        setattr(record, names[0], None)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, names[0]) is record[0]


@pytest.mark.parametrize("record,names,defaults,text", RECORDS, ids=IDS)
def test_pickle_and_copy_round_trip(record, names, defaults, text):
    for clone in (
        pickle.loads(pickle.dumps(record)),
        copy.copy(record),
        copy.deepcopy(record),
    ):
        assert type(clone) is type(record)
        assert clone == record and hash(clone) == hash(record)
        assert repr(clone) == text


def test_record_methods_survive():
    assert GeoPoint(1.0, 2.0) == GeoPoint(1.0, 2.0, 0.0)
    assert POINT._replace(alt=3.0) == GeoPoint(35.1456, 33.4299, 3.0)
    assert type(POINT._replace(alt=3.0)) is GeoPoint
    assert FIX.quality_ok and not FIX._replace(hdop=3.0).quality_ok
    assert not FIX._replace(valid=False).quality_ok
    assert not MESSAGE.is_forged and MESSAGE._replace(origin="mitm").is_forged


def test_retained_telemetry_holds_no_mutable_object():
    """Every object a retained telemetry message reaches is a hot record or
    untracked by the collector after one collection.

    The records themselves stay tracked: CPython untracks only exact
    tuples, never tuple subclasses. A mutable field (a list, a dict, a
    plain object) would be tracked as well and fail here.
    """
    world = build_three_uav_world(seed=1).world
    for _ in range(6):
        world.step()
    retained = [m for m in world.bus.traffic if m.topic.endswith("/telemetry")]
    assert len(retained) >= 6 * len(world.uavs)
    gc.collect()
    for message in retained:
        pending, tracked = [message], []
        while pending:
            obj = pending.pop()
            if isinstance(obj, HOT_RECORDS):
                tracked.append(type(obj))
                pending.extend(obj)
            else:
                assert not gc.is_tracked(obj), (type(obj), obj)
        assert sorted(cls.__name__ for cls in tracked) == [
            "GeoPoint", "GpsFix", "Message", "Telemetry",
        ]


@pytest.mark.parametrize("spoof,denied", [
    ((0.0, 0.0, 0.0), False), ((4.0, -2.0, 0.5), False), ((0.0, 0.0, 0.0), True),
])
def test_gps_position_is_the_measured_fix_in_enu(spoof, denied):
    frame = EnuFrame(ORIGIN)
    sensors = [
        GpsSensor(
            frame=frame, rng=np.random.default_rng(5), spoof_offset_m=spoof, denied=denied,
        )
        for _ in range(2)
    ]
    rng = random.Random(3)
    for step in range(200):  # crosses several noise-chunk refills
        true_enu = (rng.uniform(-500, 500), rng.uniform(-500, 500), rng.uniform(0, 120))
        fix = sensors[0].measure(true_enu, step * 0.5)
        position = sensors[1].position(true_enu)
        if fix.valid:
            assert _hex(position) == _hex(frame.to_enu(fix.point))
        else:
            assert position is None
    for a, b in ((sensors[0].noise, sensors[1].noise), (sensors[0].quality, sensors[1].quality)):
        assert a.pop() == b.pop()


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


def test_roundtrip_hex_matches_both_conversions():
    rng = random.Random(20261017)
    for _ in range(1000):
        frame = EnuFrame(GeoPoint(
            rng.uniform(-80.0, 80.0), rng.uniform(-180.0, 180.0), rng.uniform(-50.0, 500.0)
        ))
        east, north, up = (rng.uniform(-5e3, 5e3) for _ in range(3))
        assert _hex(frame.roundtrip(east, north, up)) == _hex(
            frame.to_enu(frame.to_geo(east, north, up))
        )
