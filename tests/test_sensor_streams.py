"""Noise-stream contract of the sensor suite, bit for bit.

Each sensor channel draws fixed-width events through a chunk-prefetching
noise source. These tests pin that the chunked sources hand out exactly
the values per-call draws from a same-seed ``Generator`` would give —
compared as ``float.hex`` strings, across several chunk boundaries, through
denied/unhealthy windows that must consume nothing, and on the spoofed
quality branch — and that the vectorized fleet engine continues a stream
a sensor had already started before the UAV was adopted.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.geo import EnuFrame, GeoPoint
from repro.middleware.rosbus import RosBus
from repro.uav.fleet import NoiseChannel
from repro.uav.sensors import (
    CHUNK,
    GpsSensor,
    ImuSensor,
    NoiseStream,
    TemperatureSensor,
    WindSensor,
)
from repro.uav.uav import Uav, UavSpec
from repro.uav.world import World

FRAME = EnuFrame(origin=GeoPoint(35.1456, 33.4299, 0.0))
#: Measures per test: several refills of a CHUNK-event buffer.
N = 3 * CHUNK + 7


def _hex(values) -> list[str]:
    return [float(v).hex() for v in values]


def _gps_reference(noise, quality, true_enu, offset, std, now):
    """The per-call GPS formulas: one normal(3) and one uniform(2) draw."""
    z = noise.standard_normal(3)
    noisy = tuple((t + o) + std * float(zi) for t, o, zi in zip(true_enu, offset, z))
    u = quality.random(2)
    if any(abs(o) > 1e-9 for o in offset):
        sats, hdop = 6 + int(float(u[0]) * 3.0), 1.2 + 1.0 * float(u[1])
    else:
        sats, hdop = 7 + int(float(u[0]) * 6.0), 0.7 + 0.7 * float(u[1])
    point = FRAME.to_geo(*noisy)
    return _hex((point.lat, point.lon, point.alt, hdop, now)) + [sats]


def _gps_fix(fix) -> list:
    point = fix.point
    return _hex((point.lat, point.lon, point.alt, fix.hdop, fix.stamp)) + [
        fix.num_satellites
    ]


def _gps_pair(seed: int):
    sensor = GpsSensor(
        frame=FRAME,
        rng=np.random.default_rng(seed),
        quality_rng=np.random.default_rng(seed + 1),
        noise_std_m=0.35,
    )
    return sensor, np.random.default_rng(seed), np.random.default_rng(seed + 1)


class TestChunkedChannelsMatchPerCallDraws:
    def test_gps_noise_and_quality(self):
        gps, noise, quality = _gps_pair(3)
        true = (120.0, -40.0, 18.0)
        for step in range(N):
            now = 0.5 * step
            assert _gps_fix(gps.measure(true, now)) == _gps_reference(
                noise, quality, true, (0.0, 0.0, 0.0), 0.35, now
            ), f"measure {step}"

    def test_spoofed_quality_branch(self):
        gps, noise, quality = _gps_pair(11)
        true = (5.0, 6.0, 20.0)
        for step in range(N):
            # Alternate spoofed and clean windows of uneven length.
            offset = (30.0, 0.0, 0.0) if (step // 13) % 2 else (0.0, 0.0, 0.0)
            gps.spoof_offset_m = offset
            fix = gps.measure(true, 1.0)
            assert _gps_fix(fix) == _gps_reference(
                noise, quality, true, offset, 0.35, 1.0
            ), f"measure {step}"
            assert 6 <= fix.num_satellites <= (8 if any(offset) else 12)

    def test_imu(self):
        imu = ImuSensor(rng=np.random.default_rng(5), noise_std_mps=0.08)
        ref = np.random.default_rng(5)
        velocity = (3.25, -1.5, 0.125)
        for step in range(N):
            z = ref.standard_normal(3)
            expected = [v + 0.08 * float(zi) for v, zi in zip(velocity, z)]
            assert _hex(imu.measure(velocity)) == _hex(expected), f"measure {step}"

    def test_temperature(self):
        sensor = TemperatureSensor(rng=np.random.default_rng(7), noise_std_c=0.5)
        ref = np.random.default_rng(7)
        for step in range(N):
            expected = 31.5 + 0.5 * float(ref.standard_normal())
            assert sensor.measure(31.5).hex() == expected.hex(), f"measure {step}"

    def test_wind_including_clamp(self):
        sensor = WindSensor(rng=np.random.default_rng(9), noise_std_mps=0.4)
        ref = np.random.default_rng(9)
        clamped = 0
        for step in range(N):
            # Near-zero true wind so the non-negativity clamp fires often.
            expected = max(0.0, 0.1 + 0.4 * float(ref.standard_normal()))
            got = sensor.measure(0.1)
            clamped += got == 0.0
            assert got.hex() == expected.hex(), f"measure {step}"
        assert clamped > 10


class TestSkippedMeasuresConsumeNothing:
    @pytest.mark.parametrize("flag", ["denied", "unhealthy"])
    def test_gps_window(self, flag):
        gps, noise, quality = _gps_pair(21)
        true = (0.0, 10.0, 12.0)
        for step in range(N):
            off = 40 <= step < 40 + CHUNK + 9  # spans a chunk boundary
            if flag == "denied":
                gps.denied = off
            else:
                gps.healthy = not off
            fix = gps.measure(true, 2.0)
            if off:
                assert not fix.valid and fix.num_satellites == 0
                assert fix.point == FRAME.to_geo(*true)
                continue
            assert fix.valid
            assert _gps_fix(fix) == _gps_reference(
                noise, quality, true, (0.0, 0.0, 0.0), 0.35, 2.0
            ), f"measure {step}"

    def test_imu_window(self):
        imu = ImuSensor(rng=np.random.default_rng(23))
        ref = np.random.default_rng(23)
        for step in range(N):
            imu.healthy = not (10 <= step < 90)
            got = imu.measure((1.0, 2.0, 3.0))
            if not imu.healthy:
                assert got == (0.0, 0.0, 0.0)
                continue
            z = ref.standard_normal(3)
            expected = [v + 0.08 * float(zi) for v, zi in zip((1.0, 2.0, 3.0), z)]
            assert _hex(got) == _hex(expected), f"measure {step}"


class TestHandOver:
    @pytest.mark.parametrize("width,kind", [(3, "normal"), (2, "uniform"), (1, "normal")])
    @pytest.mark.parametrize("used", [0, 1, CHUNK - 1, CHUNK, CHUNK + 5])
    def test_channel_continues_a_started_stream(self, width, kind, used):
        stream = NoiseStream(np.random.default_rng(31), width, kind)
        ref = NoiseStream(np.random.default_rng(31), width, kind)
        for _ in range(used):
            assert stream.pop() == ref.pop()
        channel = NoiseChannel(width, kind)
        channel.add_row(np.random.default_rng(99), [])  # an unrelated row
        source = channel.adopt(stream)
        for _ in range(2 * CHUNK + 3):
            assert source.pop() == ref.pop()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            NoiseStream(np.random.default_rng(0), 1, "poisson")


def _presampled_world(engine: str, bus: RosBus) -> World:
    """A world whose UAVs sampled every sensor before being added to it."""
    world = World(frame=FRAME, rng=np.random.default_rng(0), engine=engine, bus=bus)
    for i in range(3):
        uav = Uav(
            spec=UavSpec(uav_id=f"uav{i + 1}", base_position=(30.0 + 60.0 * i, -20.0, 0.0)),
            frame=FRAME,
            bus=world.bus,
            rng=np.random.default_rng(100 + i),
        )
        # Different draw counts per UAV and channel, so every channel hands
        # over a different number of prefetched events (one a full chunk).
        for _ in range(5 + 7 * i):
            uav.nav_position(0.0)
        for _ in range(3 + i):
            uav.sensors.imu.measure((0.0, 0.0, 0.0))
        for _ in range(CHUNK if i == 2 else 2 * i + 1):
            uav.sensors.temperature.measure(25.0)
        uav.sensors.wind.measure(2.0)
        world.add_uav(uav)
        uav.start_mission([(150.0, 120.0, 20.0), (20.0, 200.0, 25.0)])
    return world


def test_adoption_after_sampling_keeps_lockstep(record_traffic):
    """Sensors sampled before ``World.add_uav`` stay bit-identical (tol=0)."""
    scalar_bus, vector_bus = RosBus(), RosBus()
    scalar_traffic, vector_traffic = record_traffic(scalar_bus), record_traffic(vector_bus)
    scalar = _presampled_world("scalar", scalar_bus)
    vector = _presampled_world("vectorized", vector_bus)
    assert vector.engine == "vectorized"
    for step in range(3 * CHUNK):
        assert scalar.step() == vector.step()
        for uav_id, uav in scalar.uavs.items():
            peer = vector.uavs[uav_id]
            where = f"step {step} {uav_id}"
            assert uav.dynamics.position == peer.dynamics.position, where
            assert uav.dynamics.velocity == peer.dynamics.velocity, where
            assert uav.believed_trajectory[-1] == tuple(peer.believed_trajectory[-1]), where
            assert uav.battery.soc == peer.battery.soc, where
            assert uav.battery.temp_c == peer.battery.temp_c, where
            assert uav.mode is peer.mode, where
    scalar_log = [(m.topic, m.seq, m.stamp, m.data) for m in scalar_traffic]
    vector_log = [(m.topic, m.seq, m.stamp, m.data) for m in vector_traffic]
    assert len(scalar_log) > 2 * CHUNK
    assert scalar_log == vector_log


def test_direct_sampling_after_adoption_shares_the_stream():
    """A direct measure on an adopted sensor takes the engine's next event."""
    bus = RosBus()
    scalar_uav = Uav(UavSpec("u1"), FRAME, bus, np.random.default_rng(4))
    world = World(frame=FRAME, engine="vectorized")
    vector_uav = world.add_uav(Uav(UavSpec("u1"), FRAME, world.bus, np.random.default_rng(4)))
    for _ in range(CHUNK + 2):
        assert (
            scalar_uav.sensors.temperature.measure(20.0).hex()
            == vector_uav.sensors.temperature.measure(20.0).hex()
        )
        assert scalar_uav.sensors.imu.measure((1.0, 0.0, 0.0)) == (
            vector_uav.sensors.imu.measure((1.0, 0.0, 0.0))
        )
