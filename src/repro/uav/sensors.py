"""Sensor suite for the simulated UAV.

Each sensor samples the true world/vehicle state and returns a noisy,
possibly faulted or attacked measurement. The GPS sensor is the attack
surface for the spoofing experiments (Fig. 6/7): an attacker can bias its
output or deny it entirely, while quality indicators (satellite count,
dilution of precision) degrade in ways the GPS-localization ConSert
monitors.

Noise-stream contract (load-bearing for :mod:`repro.uav.fleet`): every
noise channel of a sensor draws from its *own* spawned generator, and
each measure takes exactly one fixed-width event from it through the
channel's noise source — GPS noise one ``normal(3)`` event, GPS quality
one ``uniform(2)``, IMU one ``normal(3)``, temperature and wind one scalar
``normal`` each; a denied or unhealthy sensor takes nothing. A sensor
only ever calls its source's ``pop()``. By default the source is a
:class:`NoiseStream`, which prefetches ``CHUNK`` events per generator call;
chunked draws from a numpy ``Generator`` consume the bit stream exactly
like per-event calls, so the values are those of calling
``standard_normal(3)`` / ``random(2)`` / ``standard_normal()`` once per
measure. The vectorized fleet engine swaps each source for one served
from its batched per-channel buffers over the same generators, so both
engines see identical draws no matter who samples when.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from typing import NamedTuple

import numpy as np

from repro.geo import EnuFrame, GeoPoint

#: Events a noise stream (or fleet noise channel) prefetches per refill.
CHUNK = 64

#: Noise kind -> the ``Generator`` method that draws it.
NOISE_KINDS = {"normal": "standard_normal", "uniform": "random"}


class NoiseStream:
    """Fixed-width noise events from one generator, prefetched in chunks.

    :meth:`pop` returns one event: a ``float`` when ``width`` is 1, else a
    list of ``width`` floats. Each refill is one ``(CHUNK, width)`` draw,
    bit-identical to ``CHUNK`` per-event draws on the same generator.
    """

    __slots__ = ("_gen", "_draw", "_shape", "_events")

    def __init__(self, gen: np.random.Generator, width: int, kind: str) -> None:
        if kind not in NOISE_KINDS:
            raise ValueError(f"unknown noise kind {kind!r}")
        self._gen = gen
        self._draw = getattr(gen, NOISE_KINDS[kind])
        self._shape = CHUNK if width == 1 else (CHUNK, width)
        self._events = iter(())

    def pop(self):
        """Consume and return the next event."""
        try:
            return next(self._events)
        except StopIteration:
            self._events = iter(self._draw(self._shape).tolist())
            return next(self._events)

    def detach(self) -> tuple[np.random.Generator, list]:
        """Hand over the generator and the prefetched, unconsumed events.

        For a new owner that continues the stream (the fleet engine's noise
        channels); this stream must not be used afterwards.
        """
        pending = list(self._events)
        self._draw = None
        return self._gen, pending


class GpsFix(NamedTuple):
    """One GPS measurement: geodetic point plus quality indicators."""

    point: GeoPoint
    num_satellites: int
    hdop: float
    valid: bool
    stamp: float

    @property
    def quality_ok(self) -> bool:
        """True when the fix meets the nominal navigation quality bar."""
        return self.valid and self.num_satellites >= 6 and self.hdop <= 2.5


@dataclass
class GpsSensor:
    """GPS receiver with Gaussian noise, spoof bias, and denial.

    ``spoof_offset_m`` shifts the reported position in the ENU frame —
    the physical effect of a GPS spoofing attack. ``denied`` models
    jamming/loss: fixes come back invalid with zero satellites.

    ``rng`` seeds the position-noise source ``noise``; ``quality_rng``
    (spawned from ``rng`` when omitted) seeds the quality source
    ``quality``.
    """

    frame: EnuFrame
    rng: InitVar[np.random.Generator]
    quality_rng: InitVar[np.random.Generator | None] = None
    noise_std_m: float = 0.35
    spoof_offset_m: tuple[float, float, float] = (0.0, 0.0, 0.0)
    denied: bool = False
    healthy: bool = True
    noise: NoiseStream = field(init=False, repr=False, compare=False)
    quality: NoiseStream = field(init=False, repr=False, compare=False)

    def __post_init__(
        self, rng: np.random.Generator, quality_rng: np.random.Generator | None
    ) -> None:
        if quality_rng is None:
            quality_rng = rng.spawn(1)[0]
        self.noise = NoiseStream(rng, 3, "normal")
        self.quality = NoiseStream(quality_rng, 2, "uniform")

    def measure(self, true_enu: tuple[float, float, float], now: float) -> GpsFix:
        """Produce a fix for the vehicle at ``true_enu`` metres.

        Stream contract: a valid measure takes one ``normal(3)`` event
        from ``noise`` and one ``uniform(2)`` event from ``quality``; a
        denied/unhealthy measure takes nothing.
        """
        if self.denied or not self.healthy:
            return GpsFix(self.frame.to_geo(*true_enu), 0, 99.0, False, now)
        east, north, up, sats, hdop = self._sample(true_enu)
        return GpsFix(self.frame.to_geo(east, north, up), sats, hdop, True, now)

    def position(self, true_enu: tuple[float, float, float]) -> tuple[float, float, float] | None:
        """ENU position of a fresh fix, or ``None`` when no valid fix comes.

        Takes the same events as :meth:`measure` and returns, bit for
        bit, ``frame.to_enu(measure(true_enu, now).point)`` of a valid
        fix, without building the fix.
        """
        if self.denied or not self.healthy:
            return None
        east, north, up, _, _ = self._sample(true_enu)
        return self.frame.roundtrip(east, north, up)

    def _sample(
        self, true_enu: tuple[float, float, float]
    ) -> tuple[float, float, float, int, float]:
        """The sampling kernel of a valid fix: noisy ENU point, satellites, HDOP.

        Takes one ``noise`` event, then one ``quality`` event.
        """
        zx, zy, zz = self.noise.pop()
        tx, ty, tz = true_enu
        ox, oy, oz = self.spoof_offset_m
        std = self.noise_std_m
        # A spoofer replays consistent ephemeris, so quality indicators stay
        # plausible; mild degradation reflects the repeater geometry.
        u0, u1 = self.quality.pop()
        if abs(ox) > 1e-9 or abs(oy) > 1e-9 or abs(oz) > 1e-9:
            sats = 6 + int(u0 * 3.0)
            hdop = 1.2 + 1.0 * u1
        else:
            sats = 7 + int(u0 * 6.0)
            hdop = 0.7 + 0.7 * u1
        return (
            (tx + ox) + std * zx, (ty + oy) + std * zy, (tz + oz) + std * zz, sats, hdop
        )


@dataclass
class ImuSensor:
    """Inertial sensor producing noisy velocity (odometry proxy).

    The spoofing detector cross-checks GPS displacement against IMU-derived
    displacement; the IMU is assumed unspoofable (it is self-contained).
    ``rng`` seeds the noise source ``noise``.
    """

    rng: InitVar[np.random.Generator]
    noise_std_mps: float = 0.08
    healthy: bool = True
    noise: NoiseStream = field(init=False, repr=False, compare=False)

    def __post_init__(self, rng: np.random.Generator) -> None:
        self.noise = NoiseStream(rng, 3, "normal")

    def measure(self, true_velocity: tuple[float, float, float]) -> tuple[float, float, float]:
        """Return a noisy copy of the true velocity vector.

        Stream contract: one ``normal(3)`` event per healthy measure,
        nothing when unhealthy.
        """
        if not self.healthy:
            return (0.0, 0.0, 0.0)
        zx, zy, zz = self.noise.pop()
        vx, vy, vz = true_velocity
        std = self.noise_std_mps
        return (vx + std * zx, vy + std * zy, vz + std * zz)


@dataclass
class Camera:
    """RGB camera health model.

    The vision-based sensor-health ConSert consumes ``health`` in [0, 1];
    degradations model lens obstruction, vibration blur, or low light.
    """

    rng: np.random.Generator
    health: float = 1.0
    degradation_rate: float = 0.0

    def step(self, dt: float) -> None:
        """Apply any configured gradual degradation."""
        if self.degradation_rate > 0.0:
            self.health = max(0.0, self.health - self.degradation_rate * dt)

    @property
    def operational(self) -> bool:
        """True while the camera can support vision-based navigation."""
        return self.health >= 0.5


@dataclass
class TemperatureSensor:
    """Battery/ambient temperature sensor with small Gaussian noise.

    ``rng`` seeds the noise source ``noise``.
    """

    rng: InitVar[np.random.Generator]
    noise_std_c: float = 0.5
    noise: NoiseStream = field(init=False, repr=False, compare=False)

    def __post_init__(self, rng: np.random.Generator) -> None:
        self.noise = NoiseStream(rng, 1, "normal")

    def measure(self, true_temp_c: float) -> float:
        """Return a noisy temperature reading in Celsius.

        Stream contract: exactly one scalar ``normal`` event.
        """
        return true_temp_c + self.noise_std_c * self.noise.pop()


@dataclass
class WindSensor:
    """Wind speed estimate from attitude compensation, noisy.

    ``rng`` seeds the noise source ``noise``.
    """

    rng: InitVar[np.random.Generator]
    noise_std_mps: float = 0.4
    noise: NoiseStream = field(init=False, repr=False, compare=False)

    def __post_init__(self, rng: np.random.Generator) -> None:
        self.noise = NoiseStream(rng, 1, "normal")

    def measure(self, true_wind_mps: float) -> float:
        """Return a noisy non-negative wind speed reading.

        Stream contract: exactly one scalar ``normal`` event.
        """
        wind = true_wind_mps + self.noise_std_mps * self.noise.pop()
        return wind if wind > 0.0 else 0.0


@dataclass
class SensorSuite:
    """The full sensor complement of one UAV."""

    gps: GpsSensor
    imu: ImuSensor
    camera: Camera
    temperature: TemperatureSensor
    wind: WindSensor

    @classmethod
    def create(cls, frame: EnuFrame, rng: np.random.Generator) -> "SensorSuite":
        """Build a nominal suite with one spawned stream per noise channel.

        Spawning (rather than sharing ``rng``) keeps every channel's draw
        sequence independent of how often the other sensors sample — the
        property that lets each channel prefetch its events in chunks.
        Spawning does not consume from ``rng`` itself.
        """
        gps_noise, gps_quality, imu_rng, temp_rng, wind_rng = rng.spawn(5)
        return cls(
            gps=GpsSensor(frame=frame, rng=gps_noise, quality_rng=gps_quality),
            imu=ImuSensor(rng=imu_rng),
            camera=Camera(rng=rng),
            temperature=TemperatureSensor(rng=temp_rng),
            wind=WindSensor(rng=wind_rng),
        )
