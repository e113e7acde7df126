"""Vectorized structure-of-arrays fleet engine.

The scalar reference path steps one :class:`~repro.uav.uav.Uav` at a time
(``World.step`` → ``Uav.step``), which is trustworthy but linear in fleet
size — 50+-UAV campaigns spend nearly all their wall-clock in per-UAV
Python. This module batches the per-step physics across the whole fleet as
NumPy array operations while keeping every per-UAV Python object alive as
a *thin view* over the shared arrays, so the EDDI/ConSert/bus layers (and
fault injection, which mutates per-UAV objects) are untouched.

Bit-exactness contract
----------------------
``World(engine="vectorized")`` must agree with ``engine="scalar"`` to the
last bit, not just to a tolerance — the trajectories feed discrete
branches (waypoint capture, touchdown, battery thresholds) where any ULP
difference would compound into divergence. Three rules make this hold:

* Every arithmetic expression mirrors the scalar code's operation order
  exactly (IEEE-754 elementwise ops are identical between Python floats
  and NumPy float64).
* Trigonometric constants (``cos(lat0)``) are computed once with
  :mod:`math` and reused, never recomputed with NumPy; knife-edge
  comparisons that scalar code makes with :func:`math.dist` (waypoint
  capture, near-base) are made with :func:`math.dist` here too, guarded
  by a conservative vectorized prefilter.
* Sensor noise comes from the *same* per-channel generators the scalar
  sensors own (:class:`~repro.uav.sensors.SensorSuite` spawns one stream
  per channel), prefetched in chunks — chunked draws from a numpy
  ``Generator`` consume the bit stream exactly like per-event draws, which
  is also how the scalar sensors' :class:`~repro.uav.sensors.NoiseStream`
  sources draw. On adoption each sensor's source hands its generator,
  and any events it has already prefetched but not used, to a
  :class:`NoiseChannel` row, and is replaced by a :class:`ChannelNoise`
  served from that row, so even code that samples a sensor directly
  (collaborative localization, tests) stays on the shared stream.

Known, documented deviation: under the vectorized engine a telemetry
subscriber callback observes the *whole* fleet post-dynamics, whereas the
scalar loop publishes UAV ``i``'s telemetry before UAV ``i+1`` has moved.
Worlds built from ``scenarios/*.json`` have no mid-step subscribers, so
the differential suite is unaffected.
"""

from __future__ import annotations

import math

import numpy as np

from repro.geo import EARTH_RADIUS_M, GeoPoint
from repro.obs import event
from repro.uav.battery import Battery
from repro.uav.dynamics import UavDynamics
from repro.uav.sensors import CHUNK, NOISE_KINDS, GpsFix, NoiseStream
from repro.uav.uav import FlightMode, Telemetry, Uav

_IDLE, _MISSION, _HOLD, _RTB, _EMERGENCY, _GUIDED, _LANDED = range(7)
_MODE_CODE = {
    FlightMode.IDLE: _IDLE,
    FlightMode.MISSION: _MISSION,
    FlightMode.HOLD: _HOLD,
    FlightMode.RETURN_TO_BASE: _RTB,
    FlightMode.EMERGENCY_LAND: _EMERGENCY,
    FlightMode.GUIDED: _GUIDED,
    FlightMode.LANDED: _LANDED,
}


class NoiseChannel:
    """Chunk-prefetched noise streams, one generator per fleet row.

    ``kind`` selects the distribution (``"normal"`` → ``standard_normal``,
    ``"uniform"`` → ``random``); ``width`` is the fixed event width. A
    refill draws ``(CHUNK, width)`` values in one call, which is
    bit-identical to CHUNK per-event draws on the same generator.

    While every consumer takes one event for *all* rows at once (the
    common case — every UAV measures every step) the channel stays in a
    "uniform" regime with a single shared cursor, so a take is one basic
    slice. The first partial take (GPS denial, a staggered telemetry
    schedule, a direct ``sensor.measure()`` call) or a row adopted with
    pending events permanently drops the channel to per-row cursors, which
    cost a few fancy-indexing ops.
    """

    def __init__(self, width: int, kind: str) -> None:
        if kind not in NOISE_KINDS:
            raise ValueError(f"unknown channel kind {kind!r}")
        self.width = width
        self.kind = kind
        self._method = NOISE_KINDS[kind]
        self._gens: list[np.random.Generator] = []
        self._buf = np.empty((0, CHUNK, width))
        self._cur = np.empty(0, dtype=np.int64)
        self._uniform = True
        self._shared = 0

    def __len__(self) -> int:
        return len(self._gens)

    def _draw_chunk(self, row: int) -> None:
        draw = getattr(self._gens[row], self._method)
        self._buf[row] = draw((CHUNK, self.width))
        self._cur[row] = 0

    def _desync(self) -> None:
        """Materialize per-row cursors; entered on the first partial take."""
        if self._uniform:
            self._cur[: len(self._gens)] = self._shared
            self._uniform = False

    def add_row(self, gen: np.random.Generator, pending: list = ()) -> int:
        """Register one generator; returns its row index.

        ``pending`` holds events already drawn from ``gen`` but not yet
        consumed (oldest first, at most ``CHUNK``); the row serves them
        before drawing fresh chunks, so the stream continues unbroken.
        """
        n_pending = len(pending)
        if self._uniform and (self._shared or n_pending):
            # Existing rows are mid-chunk, or the new row starts mid-chunk:
            # cursors can no longer be shared.
            self._desync()
        row = len(self._gens)
        self._gens.append(gen)
        if row >= self._buf.shape[0]:
            grown = np.empty((max(4, 2 * self._buf.shape[0]), CHUNK, self.width))
            grown[: self._buf.shape[0]] = self._buf
            self._buf = grown
            cur = np.zeros(self._buf.shape[0], dtype=np.int64)
            cur[: len(self._cur)] = self._cur
            self._cur = cur
        if n_pending:
            start = CHUNK - n_pending
            self._buf[row, start:] = np.reshape(pending, (n_pending, self.width))
            self._cur[row] = start
        else:
            self._draw_chunk(row)
        return row

    def adopt(self, stream: NoiseStream) -> "ChannelNoise":
        """Take over a sensor's noise stream as a new row; returns its source."""
        return ChannelNoise(self, self.add_row(*stream.detach()))

    def take_all(self) -> np.ndarray:
        """Consume one event for every row; returns an (n_rows, width) view."""
        nrows = len(self._gens)
        if not self._uniform:
            return self.take(np.arange(nrows))
        cursor = self._shared
        if cursor >= CHUNK:
            for row in range(nrows):
                self._draw_chunk(row)
            cursor = 0
        self._shared = cursor + 1
        return self._buf[:nrows, cursor]

    def take(self, rows: np.ndarray) -> np.ndarray:
        """Consume one event for every index in ``rows``; returns (M, width)."""
        self._desync()
        cur = self._cur
        cursors = cur[rows]
        over = cursors >= CHUNK
        if over.any():
            for row in rows[over]:
                self._draw_chunk(int(row))
            cursors = cur[rows]
        out = self._buf[rows, cursors]
        cur[rows] = cursors + 1
        return out

    def pop(self, row: int) -> np.ndarray:
        """Consume one event for a single row (the :class:`ChannelNoise` path)."""
        self._desync()
        if self._cur[row] >= CHUNK:
            self._draw_chunk(row)
        out = self._buf[row, self._cur[row]]
        self._cur[row] += 1
        return out


class ChannelNoise:
    """An adopted sensor's noise source, served from one NoiseChannel row.

    Same ``pop()`` contract as :class:`~repro.uav.sensors.NoiseStream`, so
    direct sensor sampling (outside the engine's batched phases) consumes
    the same prefetched stream the engine does — keeping scalar and
    vectorized runs on identical draws no matter who samples when.
    """

    __slots__ = ("_channel", "_row")

    def __init__(self, channel: NoiseChannel, row: int) -> None:
        self._channel = channel
        self._row = row

    def pop(self):
        """Consume and return the row's next event (float when width is 1)."""
        event = self._channel.pop(self._row).tolist()
        return event if self._channel.width > 1 else event[0]


class Trail:
    """Lazy per-UAV view over the fleet's per-step position history.

    Reads index into the shared list of per-step ``(n, 3)`` snapshots;
    nothing is materialized per step. The first ``append`` (e.g. fig. 7
    pre-seeding a belief) converts the trail to a real list — registering
    with the engine, which then keeps appending to that list for this UAV
    only.
    """

    __slots__ = ("_hist", "_row", "_start", "_list", "_registry")

    def __init__(
        self, hist: list[np.ndarray], row: int, registry: list | None = None
    ) -> None:
        self._hist = hist
        self._row = row
        self._start = len(hist)
        self._list: list[tuple[float, float, float]] | None = None
        self._registry = registry

    def _entry(self, step: int) -> tuple[float, float, float]:
        snap = self._hist[self._start + step]
        row = self._row
        return (float(snap[row, 0]), float(snap[row, 1]), float(snap[row, 2]))

    def materialize(self) -> list[tuple[float, float, float]]:
        """Force conversion to a real list (then appended to by the engine)."""
        if self._list is None:
            self._list = [self._entry(i) for i in range(len(self))]
            if self._registry is not None:
                self._registry.append(self)
        return self._list

    def append(self, item) -> None:
        self.materialize().append(item)

    def __len__(self) -> int:
        if self._list is not None:
            return len(self._list)
        return len(self._hist) - self._start

    def __getitem__(self, index):
        if self._list is not None:
            return self._list[index]
        n = len(self)
        if isinstance(index, slice):
            return [self._entry(i) for i in range(*index.indices(n))]
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError("trail index out of range")
        return self._entry(index)

    def __iter__(self):
        if self._list is not None:
            return iter(self._list)
        return (self._entry(i) for i in range(len(self)))

    def __bool__(self) -> bool:
        return len(self) > 0


class FleetArrays:
    """Structure-of-arrays state for ``n`` UAVs (rows are registration order)."""

    _VEC = ("position", "velocity", "drift")
    _SCALAR = (
        "soc", "temp_c",
        "max_speed", "max_accel", "max_climb",
        "capacity_wh", "hover_w", "cruise_w", "idle_w", "thermal_tau",
        "noise_std", "base_e", "base_n",
    )

    def __init__(self, capacity: int = 4) -> None:
        self.n = 0
        for name in self._VEC:
            setattr(self, name, np.zeros((capacity, 3)))
        for name in self._SCALAR:
            setattr(self, name, np.zeros(capacity))

    def add_row(self) -> int:
        if self.n >= self.position.shape[0]:
            for name in self._VEC + self._SCALAR:
                old = getattr(self, name)
                grown = np.zeros((2 * old.shape[0],) + old.shape[1:])
                grown[: old.shape[0]] = old
                setattr(self, name, grown)
        row = self.n
        self.n += 1
        return row


class FleetDynamics(UavDynamics):
    """`UavDynamics` view over one fleet row; inherits all scalar methods."""

    def __init__(self, arrays: FleetArrays, row: int) -> None:
        self._a = arrays
        self._row = row

    def _vec(name: str):  # noqa: N805 — descriptor factory, not a method
        def get(self) -> tuple[float, float, float]:
            v = getattr(self._a, name)
            row = self._row
            return (float(v[row, 0]), float(v[row, 1]), float(v[row, 2]))

        def set(self, value) -> None:
            getattr(self._a, name)[self._row] = value

        return property(get, set)

    position = _vec("position")
    velocity = _vec("velocity")
    drift_velocity = _vec("drift")

    def _scalar(name: str):  # noqa: N805
        def get(self) -> float:
            return float(getattr(self._a, name)[self._row])

        def set(self, value: float) -> None:
            getattr(self._a, name)[self._row] = value

        return property(get, set)

    max_speed_mps = _scalar("max_speed")
    max_accel_mps2 = _scalar("max_accel")
    max_climb_mps = _scalar("max_climb")

    del _vec, _scalar


class FleetBattery(Battery):
    """`Battery` view over one fleet row (SoC and temperature array-backed)."""

    def __init__(self, arrays: FleetArrays, row: int, source: Battery) -> None:
        self._a = arrays
        self._row = row
        self.spec = source.spec
        self.faults = source.faults
        self.faulted = source.faulted
        arrays.soc[row] = source.soc
        arrays.temp_c[row] = source.temp_c

    @property
    def soc(self) -> float:
        return float(self._a.soc[self._row])

    @soc.setter
    def soc(self, value: float) -> None:
        self._a.soc[self._row] = value

    @property
    def temp_c(self) -> float:
        return float(self._a.temp_c[self._row])

    @temp_c.setter
    def temp_c(self, value: float) -> None:
        self._a.temp_c[self._row] = value


class FleetEngine:
    """Batched stepper for every UAV registered with one world.

    Created lazily by :class:`~repro.uav.world.World` when
    ``engine="vectorized"``; ``World.add_uav`` routes new vehicles through
    :meth:`adopt`, which re-homes their dynamics/battery state into the
    shared arrays and swaps sensor noise sources for channel-backed ones.
    """

    def __init__(self, world) -> None:
        # The frame and bus, not the world: the world owns this engine, and
        # a back-reference would leave every finished world to the cyclic GC.
        self.frame = world.frame
        self.bus = world.bus
        self.arrays = FleetArrays()
        self._uavs: list[Uav] = []
        self._gps: list = []
        self._imus: list = []
        self._cams: list = []
        self._temps: list = []
        self._winds: list = []
        self._bats: list[FleetBattery] = []
        self._ids: list[str] = []
        self._topics: list[str] = []
        self._base_xy: list[tuple[float, float]] = []
        self._fault_rows: set[int] = set()
        self.ch_gps = NoiseChannel(3, "normal")
        self.ch_quality = NoiseChannel(2, "uniform")
        self.ch_imu = NoiseChannel(3, "normal")
        self.ch_temp = NoiseChannel(1, "normal")
        self.ch_wind = NoiseChannel(1, "normal")
        self.traj_hist: list[np.ndarray] = []
        self.bel_hist: list[np.ndarray] = []
        self._live_traj: list[Trail] = []
        self._live_bel: list[Trail] = []
        # Geo constants, computed once with math (see bit-exactness notes).
        origin = world.frame.origin
        self._olat, self._olon, self._oalt = origin.lat, origin.lon, origin.alt
        self._coslat0 = math.cos(math.radians(origin.lat))
        # Per-row caches refreshed by change detection in the gather pass.
        self._mode_cache: list[FlightMode] = []
        self._mode_str: list[str] = []
        self._codes_list: list[int] = []
        self._codes = np.empty(0, dtype=np.int64)
        self._spoof = np.zeros((0, 3))
        self._spoof_cache: list[tuple] = []
        self._spoofed = np.zeros(0, dtype=bool)
        self._noise_cache: list[float] = []
        self._imu_std = np.empty(0)
        self._temp_std = np.empty(0)
        self._wind_std = np.empty(0)
        self._masks_dirty = True
        self._static_n = -1
        self._alpha_dt = None
        self._maxdv_dt = None

    # ------------------------------------------------------------- adoption
    def adopt(self, uav: Uav) -> None:
        """Re-home one UAV's state into the fleet arrays (views replace it)."""
        arrays = self.arrays
        row = arrays.add_row()
        dyn, bat, spec = uav.dynamics, uav.battery, uav.spec
        arrays.position[row] = dyn.position
        arrays.velocity[row] = dyn.velocity
        arrays.drift[row] = dyn.drift_velocity
        arrays.max_speed[row] = dyn.max_speed_mps
        arrays.max_accel[row] = dyn.max_accel_mps2
        arrays.max_climb[row] = dyn.max_climb_mps
        bspec = bat.spec
        arrays.capacity_wh[row] = bspec.capacity_wh
        arrays.hover_w[row] = bspec.hover_draw_w
        arrays.cruise_w[row] = bspec.cruise_draw_w
        arrays.idle_w[row] = bspec.idle_draw_w
        arrays.thermal_tau[row] = bspec.thermal_time_constant_s
        arrays.noise_std[row] = uav.sensors.gps.noise_std_m
        arrays.base_e[row] = spec.base_position[0]
        arrays.base_n[row] = spec.base_position[1]
        uav.dynamics = FleetDynamics(arrays, row)
        battery = FleetBattery(arrays, row, bat)
        uav.battery = battery
        sensors = uav.sensors
        sensors.gps.noise = self.ch_gps.adopt(sensors.gps.noise)
        sensors.gps.quality = self.ch_quality.adopt(sensors.gps.quality)
        sensors.imu.noise = self.ch_imu.adopt(sensors.imu.noise)
        sensors.temperature.noise = self.ch_temp.adopt(sensors.temperature.noise)
        sensors.wind.noise = self.ch_wind.adopt(sensors.wind.noise)
        traj = Trail(self.traj_hist, row, self._live_traj)
        bel = Trail(self.bel_hist, row, self._live_bel)
        if uav.trajectory:
            existing = list(uav.trajectory)
            traj.materialize()
            traj._list[:] = existing
        if uav.believed_trajectory:
            existing = list(uav.believed_trajectory)
            bel.materialize()
            bel._list[:] = existing
        uav.trajectory = traj
        uav.believed_trajectory = bel
        self._uavs.append(uav)
        self._gps.append(sensors.gps)
        self._imus.append(sensors.imu)
        self._cams.append(sensors.camera)
        self._temps.append(sensors.temperature)
        self._winds.append(sensors.wind)
        self._bats.append(battery)
        self._ids.append(spec.uav_id)
        self._topics.append(uav._telemetry_topic)
        self._base_xy.append((spec.base_position[0], spec.base_position[1]))
        self._mode_cache.append(uav.mode)
        self._mode_str.append(uav.mode.value)
        self._codes_list.append(_MODE_CODE[uav.mode])
        self._codes = np.array(self._codes_list, dtype=np.int64)
        self._spoof = np.vstack([self._spoof, np.zeros(3)])
        self._spoof_cache.append(sensors.gps.spoof_offset_m)
        self._spoof[row] = sensors.gps.spoof_offset_m
        self._spoofed = np.append(
            self._spoofed,
            any(abs(o) > 1e-9 for o in sensors.gps.spoof_offset_m),
        )
        self._noise_cache.append(sensors.gps.noise_std_m)
        # Sensor noise magnitudes are spec constants (faults toggle health,
        # denial, and bias — never the std), so they are cached as arrays
        # and folded into batched telemetry math.
        self._imu_std = np.append(self._imu_std, sensors.imu.noise_std_mps)
        self._temp_std = np.append(self._temp_std, sensors.temperature.noise_std_c)
        self._wind_std = np.append(self._wind_std, sensors.wind.noise_std_mps)
        self._masks_dirty = True
        self._static_n = -1

    # ----------------------------------------------------- cached step state
    def _rebuild_static(self, n: int) -> None:
        """Refresh full-fleet slices after the arrays grew (adoption)."""
        arrays = self.arrays
        self._cap = arrays.capacity_wh[:n]
        self._idle = arrays.idle_w[:n]
        self._cruise = arrays.cruise_w[:n]
        self._hover = arrays.hover_w[:n]
        self._hover_floor = np.maximum(arrays.hover_w[:n], 1.0)
        self._tau = arrays.thermal_tau[:n]
        self._alpha_dt = None
        self._static_n = n

    def _rebuild_masks(self, n: int) -> None:
        """Refresh mode-derived masks; runs only when a mode changed."""
        codes = self._codes[:n]
        stepping = (codes != _IDLE) & (codes != _LANDED)
        self._stepping_rows = np.flatnonzero(stepping)
        self._nonstepping_rows = np.flatnonzero(~stepping)
        self._grounded_idle_mask = ~stepping
        self._mission_rows = np.flatnonzero(codes == _MISSION).tolist()
        self._rtb_rows = np.flatnonzero(codes == _RTB)
        self._em_rows = np.flatnonzero(codes == _EMERGENCY)
        self._guided_rows = np.flatnonzero(codes == _GUIDED).tolist()
        self._landing_rows = np.flatnonzero(
            (codes == _RTB) | (codes == _EMERGENCY) | (codes == _GUIDED)
        )
        arrays = self.arrays
        rows = self._stepping_rows
        self._ms_rows = arrays.max_speed[rows]
        self._climb_rows = arrays.max_climb[rows]
        self._accel_rows = arrays.max_accel[rows]
        self._rtb_base_e = arrays.base_e[self._rtb_rows]
        self._rtb_base_n = arrays.base_n[self._rtb_rows]
        self._maxdv_dt = None
        self._masks_dirty = False

    def _set_mode(self, k: int, mode: FlightMode, code: int) -> None:
        """Apply an engine-driven mode transition (capture / touchdown)."""
        self._uavs[k].mode = mode
        self._mode_cache[k] = mode
        self._mode_str[k] = mode.value
        self._codes_list[k] = code
        self._codes[k] = code
        self._masks_dirty = True

    # ------------------------------------------------------------ geo math
    def _roundtrip(self, noisy: np.ndarray) -> tuple[np.ndarray, ...]:
        """Vectorized ``to_enu(to_geo(noisy))`` mirroring the scalar formulas.

        Returns ``(lat, lon, alt, east, north, up)`` so telemetry can build
        GpsFix points from the same intermediate values.
        """
        olat, olon, oalt = self._olat, self._olon, self._oalt
        lat = olat + np.degrees(noisy[:, 1] / EARTH_RADIUS_M)
        lon = olon + np.degrees(noisy[:, 0] / (EARTH_RADIUS_M * self._coslat0))
        alt = oalt + noisy[:, 2]
        east = np.radians(lon - olon) * EARTH_RADIUS_M * self._coslat0
        north = np.radians(lat - olat) * EARTH_RADIUS_M
        up = alt - oalt
        return lat, lon, alt, east, north, up

    # ----------------------------------------------------------------- step
    def step(
        self,
        dt: float,
        now: float,
        ambient_c: float,
        wind_mps: float,
        environment=None,
    ) -> None:
        """Advance every adopted UAV by one step (the `World.step` body)."""
        arrays = self.arrays
        n = arrays.n
        uavs = self._uavs
        gps_list = self._gps
        pos = arrays.position[:n]
        vel = arrays.velocity[:n]
        if self._static_n != n:
            self._rebuild_static(n)

        # --- gather per-UAV flags (one tight Python pass, change-detected)
        mode_cache = self._mode_cache
        codes_list = self._codes_list
        spoof_cache = self._spoof_cache
        noise_cache = self._noise_cache
        cams = self._cams
        imus = self._imus
        bats = self._bats
        fault_rows = self._fault_rows
        dirty = self._masks_dirty
        gps_rows: list[int] = []
        denied_rows: list[int] = []
        tel_rows: list[int] = []
        tel_valid: list[int] = []
        tel_imu: list[int] = []
        ext_pos: dict[int, tuple] = {}
        for k in range(n):
            uav = uavs[k]
            gps = gps_list[k]
            mode = uav.mode
            if mode is not mode_cache[k]:
                mode_cache[k] = mode
                self._mode_str[k] = mode.value
                codes_list[k] = _MODE_CODE[mode]
                self._codes[k] = codes_list[k]
                dirty = True
            offset = gps.spoof_offset_m
            if offset is not spoof_cache[k]:
                spoof_cache[k] = offset
                self._spoof[k] = offset
                self._spoofed[k] = any(abs(o) > 1e-9 for o in offset)
            std = gps.noise_std_m
            if std != noise_cache[k]:
                noise_cache[k] = std
                arrays.noise_std[k] = std
            denied = gps.denied or not gps.healthy
            if uav.use_external_nav and uav.external_nav_position is not None:
                ext_pos[k] = uav.external_nav_position
            elif denied:
                denied_rows.append(k)
            else:
                gps_rows.append(k)
            if now - uav._last_telemetry >= 1.0 / uav.telemetry_rate_hz:
                tel_rows.append(k)
                if not denied:
                    tel_valid.append(k)
                if imus[k].healthy:
                    tel_imu.append(k)
            # Folded per-row upkeep (scalar runs these inside Uav.step,
            # but their inputs only change between steps and their outputs
            # are only read later in this step, so one fused pass is
            # equivalent): camera degradation and battery-fault discovery.
            cam = cams[k]
            if cam.degradation_rate > 0.0:
                cam.step(dt)
            battery = uav.battery
            if battery is not bats[k]:
                # Mid-run pack swap (`uav.battery = Battery(...)`, e.g. the
                # fig5 naive-policy replacement): re-home the fresh pack
                # into the arrays so fleet state tracks the new object.
                bspec = battery.spec
                arrays.capacity_wh[k] = bspec.capacity_wh
                arrays.hover_w[k] = bspec.hover_draw_w
                arrays.cruise_w[k] = bspec.cruise_draw_w
                arrays.idle_w[k] = bspec.idle_draw_w
                arrays.thermal_tau[k] = bspec.thermal_time_constant_s
                battery = FleetBattery(arrays, k, battery)
                uav.battery = battery
                bats[k] = battery
                self._rebuild_static(n)
            if bats[k].faults:
                fault_rows.add(k)
        if dirty:
            self._rebuild_masks(n)
        spoof = self._spoof[:n]
        noise_std = arrays.noise_std[:n]

        # --- nav phase: believed positions (scalar: Uav.nav_position)
        believed = pos.copy()
        n_gps = len(gps_rows)
        if n_gps:
            if n_gps == n:
                z = self.ch_gps.take_all()
                self.ch_quality.take_all()  # quality drawn (unused) by nav
                noisy = (pos + spoof) + noise_std[:, None] * z
                _, _, _, east, north, up = self._roundtrip(noisy)
                believed[:, 0] = east
                believed[:, 1] = north
                believed[:, 2] = up
            else:
                ga = np.array(gps_rows)
                z = self.ch_gps.take(ga)
                self.ch_quality.take(ga)
                noisy = (pos[ga] + spoof[ga]) + noise_std[ga, None] * z
                _, _, _, east, north, up = self._roundtrip(noisy)
                believed[ga, 0] = east
                believed[ga, 1] = north
                believed[ga, 2] = up
        for k in denied_rows:
            trail = uavs[k].believed_trajectory
            if len(trail):
                believed[k] = trail[-1]
        for k, ext in ext_pos.items():
            believed[k] = ext
        self.bel_hist.append(believed)

        # --- target phase (scalar: Uav._target_for_mode)
        target = np.zeros((n, 3))
        has_target = np.zeros(n, dtype=bool)
        corr_rows: list[int] = []
        corr_targets: list[tuple] = []
        mission_rows = self._mission_rows
        m_active: list[tuple | None] = []
        for k in mission_rows:
            # Inlined WaypointPlan.active (property-call overhead matters
            # at fleet scale; the semantics are the two lines below).
            plan = uavs[k].plan
            waypoints = plan.waypoints
            index = plan.index
            active = waypoints[index] if index < len(waypoints) else None
            m_active.append(active)
            if active is not None:
                corr_rows.append(k)
                corr_targets.append(active)
        for k in self._guided_rows:
            setpoint = uavs[k].guided_setpoint
            if setpoint is not None:
                corr_rows.append(k)
                corr_targets.append(setpoint)
        if corr_rows:
            ca = np.array(corr_rows)
            target[ca] = corr_targets
            has_target[ca] = True
        rtb = self._rtb_rows
        if rtb.size:
            target[rtb, 0] = self._rtb_base_e
            target[rtb, 1] = self._rtb_base_n
            has_target[rtb] = True
            # Belief-space correction (z target is 0, so the full row is
            # just the correction term applied to the base position).
            target[rtb] -= believed[rtb] - pos[rtb]
        if corr_rows:
            target[ca] -= believed[ca] - pos[ca]
        em = self._em_rows
        if em.size:
            # Vertical descent in place: raw position, no belief correction.
            target[em, 0] = pos[em, 0]
            target[em, 1] = pos[em, 1]
            has_target[em] = True

        # --- dynamics phase (scalar: UavDynamics.step_toward + ground clamp)
        ns_rows = self._nonstepping_rows
        if ns_rows.size:
            vel[ns_rows] = 0.0
        rows = self._stepping_rows
        if rows.size:
            p = pos[rows]
            v = vel[rows]
            delta = target[rows] - p
            dist = np.sqrt(
                (delta[:, 0] * delta[:, 0] + delta[:, 1] * delta[:, 1])
                + delta[:, 2] * delta[:, 2]
            )
            far = has_target[rows] & (dist >= 1e-9)
            if far.all():
                speed = np.minimum(
                    np.minimum(self._ms_rows, dist / max(dt, 1e-6)),
                    dist * 0.8 + 0.5,
                )
                desired = delta / dist[:, None] * speed[:, None]
            elif far.any():
                dist_f = dist[far]
                speed = np.minimum(
                    np.minimum(self._ms_rows[far], dist_f / max(dt, 1e-6)),
                    dist_f * 0.8 + 0.5,
                )
                desired = np.zeros_like(p)
                desired[far] = delta[far] / dist_f[:, None] * speed[:, None]
            else:
                desired = np.zeros_like(p)
            dz = desired[:, 2]
            climb = self._climb_rows
            over = np.abs(dz) > climb
            if over.any():
                dz_over = dz[over]
                # Scalar multiplies by scale (= climb/|dz|); non-over rows
                # multiply by exactly 1.0, i.e. stay untouched.
                dz[over] = dz_over * (climb[over] / np.abs(dz_over))
            dv = desired - v
            dvn = np.sqrt(
                (dv[:, 0] * dv[:, 0] + dv[:, 1] * dv[:, 1]) + dv[:, 2] * dv[:, 2]
            )
            if dt != self._maxdv_dt:
                self._maxdv = self._accel_rows * dt
                self._maxdv_dt = dt
            max_dv = self._maxdv
            lim = (dvn > max_dv) & (dvn > 1e-9)
            if lim.any():
                dv[lim] = dv[lim] / dvn[lim, None] * max_dv[lim, None]
            v = v + dv
            p = p + v * dt
            grounded = p[:, 2] < 0.0
            if grounded.any():
                p[grounded, 2] = 0.0
                v[grounded, 2] = 0.0
            vel[rows] = v
            pos[rows] = p
        self.traj_hist.append(pos.copy())
        for trail in self._live_traj:
            row = trail._row
            trail._list.append(
                (float(pos[row, 0]), float(pos[row, 1]), float(pos[row, 2]))
            )
        for trail in self._live_bel:
            row = trail._row
            trail._list.append(
                (
                    float(believed[row, 0]),
                    float(believed[row, 1]),
                    float(believed[row, 2]),
                )
            )
        pos_l = pos.tolist()
        vel_l = vel.tolist()

        # --- waypoint capture / mission completion (scalar: Uav.step)
        new_rtb: list[int] = []
        if mission_rows:
            bel_l = believed.tolist()
            for i, k in enumerate(mission_rows):
                active = m_active[i]
                plan = uavs[k].plan
                if active is not None:
                    b = bel_l[k]
                    radius = plan.capture_radius_m + 1e-6
                    # Chebyshev prefilter: any single-axis gap beyond the
                    # radius means math.dist cannot be within it.
                    if (
                        abs(b[0] - active[0]) > radius
                        or abs(b[1] - active[1]) > radius
                        or abs(b[2] - active[2]) > radius
                    ):
                        continue
                    plan.advance_if_captured(b)
                if plan.index >= len(plan.waypoints):  # inlined plan.complete
                    self._set_mode(k, FlightMode.RETURN_TO_BASE, _RTB)
                    new_rtb.append(k)

        # --- touchdown (scalar: Uav.step landing check + _near_base)
        new_landed: list[int] = []
        landing = self._landing_rows
        cand: list[int] = []
        if landing.size:
            down = (pos[landing, 2] <= 0.05) & (vel[landing, 2] <= 0.2)
            if down.any():
                cand = landing[down].tolist()
        for k in new_rtb:
            if pos_l[k][2] <= 0.05 and vel_l[k][2] <= 0.2:
                cand.append(k)
        for k in cand:
            if codes_list[k] == _RTB:
                row = pos_l[k]
                if not math.dist((row[0], row[1]), self._base_xy[k]) < 3.0:
                    continue
            self._set_mode(k, FlightMode.LANDED, _LANDED)
            new_landed.append(k)

        # --- battery phase (scalar: Uav._power_draw + Battery.step)
        grounded_idle = self._grounded_idle_mask
        if new_landed:
            grounded_idle = grounded_idle.copy()
            grounded_idle[new_landed] = True
        speed = np.sqrt(
            (vel[:, 0] * vel[:, 0] + vel[:, 1] * vel[:, 1])
            + vel[:, 2] * vel[:, 2]
        )
        draw = np.where(
            grounded_idle,
            self._idle,
            np.where(speed > 1.0, self._cruise, self._hover),
        )
        if environment is not None:
            wind2 = environment.current_wind_mps ** 2
            extra = self._cruise * 0.003 * wind2
            draw = draw + np.where(grounded_idle, 0.0, np.maximum(0.0, extra))
        soc = arrays.soc[:n]
        temp = arrays.temp_c[:n]
        energy_wh = draw * dt / 3600.0
        soc[:] = np.maximum(0.0, soc - energy_wh / self._cap)
        load_rise = 12.0 * draw / self._hover_floor
        target_c = ambient_c + load_rise
        for k in fault_rows:
            heat = sum(f.sustained_heat_c for f in bats[k].faults if f.triggered)
            if heat:
                target_c[k] = target_c[k] + heat
        if dt != self._alpha_dt:
            self._alpha = np.minimum(1.0, dt / self._tau)
            self._alpha_dt = dt
        temp[:] = temp + self._alpha * (target_c - temp)
        for k in fault_rows:
            bat = bats[k]
            for fault in bat.faults:
                if not fault.triggered and now >= fault.at_time:
                    fault.triggered = True
                    bat.faulted = True
                    soc[k] = min(soc[k], fault.soc_drop_to)
                    temp[k] = temp[k] + fault.temp_rise_c
                    event(
                        "warning", "uav.battery", "fault_activated",
                        sim_time=now, soc_drop_to=fault.soc_drop_to,
                        temp_c=round(float(temp[k]), 2),
                    )

        # --- telemetry phase (scalar: Uav.publish_telemetry)
        if tel_rows:
            self._publish_telemetry(
                tel_rows, tel_valid, tel_imu, now, wind_mps,
                pos, pos_l, vel_l, spoof, noise_std,
            )

        # --- wind drift phase (scalar: Environment.apply_wind_drift)
        if environment is not None:
            wind_e, wind_n, wind_u = environment.wind_vector()
            drift_e = wind_e * (1.0 - 0.85)
            drift_n = wind_n * (1.0 - 0.85)
            drift_u = wind_u * (1.0 - 0.85)
            drift = arrays.drift[:n]
            airborne = pos[:, 2] > 0.05
            drift[~airborne] = 0.0
            if airborne.any():
                drift[airborne, 0] = drift_e
                drift[airborne, 1] = drift_n
                drift[airborne, 2] = drift_u
                pos[airborne, 0] = pos[airborne, 0] + drift_e * dt
                pos[airborne, 1] = pos[airborne, 1] + drift_n * dt
                pos[airborne, 2] = pos[airborne, 2] + drift_u * dt

    # ------------------------------------------------------------ telemetry
    def _publish_telemetry(
        self, tel_rows, tel_valid, imu_rows, now, wind_mps, pos, pos_l,
        vel_l, spoof, noise_std,
    ) -> None:
        arrays = self.arrays
        n = arrays.n
        uavs = self._uavs
        to_geo = self.frame.to_geo
        ids = self._ids
        topics = self._topics
        mode_str = self._mode_str
        cams = self._cams
        n_valid = len(tel_valid)
        if n_valid:
            if n_valid == n:
                z = self.ch_gps.take_all()
                u = self.ch_quality.take_all()
                noisy = (pos + spoof) + noise_std[:, None] * z
                sp = self._spoofed[:n]
            else:
                va = np.array(tel_valid)
                z = self.ch_gps.take(va)
                u = self.ch_quality.take(va)
                noisy = (pos[va] + spoof[va]) + noise_std[va, None] * z
                sp = self._spoofed[va]
            lat, lon, alt, east, north, up = self._roundtrip(noisy)
            sats_l = np.where(
                sp,
                6 + (u[:, 0] * 3.0).astype(np.int64),
                7 + (u[:, 0] * 6.0).astype(np.int64),
            ).tolist()
            hdop_l = np.where(sp, 1.2 + 1.0 * u[:, 1], 0.7 + 0.7 * u[:, 1]).tolist()
            lat_l = lat.tolist()
            lon_l = lon.tolist()
            alt_l = alt.tolist()
            pos_tuples = list(zip(east.tolist(), north.tolist(), up.tolist()))
        n_imu = len(imu_rows)
        if n_imu:
            if n_imu == n:
                zi = self.ch_imu.take_all()
                iv = (arrays.velocity[:n] + arrays.drift[:n]) + self._imu_std[
                    :n, None
                ] * zi
            else:
                ia = np.array(imu_rows)
                zi = self.ch_imu.take(ia)
                iv = (arrays.velocity[ia] + arrays.drift[ia]) + self._imu_std[
                    ia, None
                ] * zi
            iv_tuples = list(map(tuple, iv.tolist()))
        if len(tel_rows) == n:
            zt = self.ch_temp.take_all()[:, 0]
            zw = self.ch_wind.take_all()[:, 0]
            bt_l = (arrays.temp_c[:n] + self._temp_std[:n] * zt).tolist()
            wv_l = np.maximum(
                0.0, wind_mps + self._wind_std[:n] * zw
            ).tolist()
        else:
            ta = np.array(tel_rows)
            zt = self.ch_temp.take(ta)[:, 0]
            zw = self.ch_wind.take(ta)[:, 0]
            bt_l = (arrays.temp_c[ta] + self._temp_std[ta] * zt).tolist()
            wv_l = np.maximum(
                0.0, wind_mps + self._wind_std[ta] * zw
            ).tolist()
        soc_l = arrays.soc[:n].tolist()
        # This loop runs fleet_size times per step; it is the hottest
        # allocation site in the engine.
        n_tel = len(tel_rows)
        items: list[tuple] = []
        items_append = items.append
        if n_valid == n_tel and n_imu == n_tel:
            # Fast path for the nominal fleet: every due row has a valid
            # fix and a healthy IMU, so every per-row list lines up with
            # tel_rows and the subsequence counters disappear.
            vel_tuples = list(map(tuple, vel_l))
            for j, k in enumerate(tel_rows):
                fix = GpsFix(
                    GeoPoint(lat_l[j], lon_l[j], alt_l[j]),
                    sats_l[j], hdop_l[j], True, now,
                )
                sample = Telemetry(
                    ids[k], now, mode_str[k], pos_tuples[j], vel_tuples[k],
                    fix, iv_tuples[j], soc_l[k], bt_l[j], cams[k].health,
                    wv_l[j],
                )
                uavs[k]._last_telemetry = now
                items_append((topics[k], sample, ids[k]))
            self.bus.publish_many(items, now)
            return
        vi = 0
        ii = 0
        for j, k in enumerate(tel_rows):
            if vi < n_valid and tel_valid[vi] == k:
                fix = GpsFix(
                    GeoPoint(lat_l[vi], lon_l[vi], alt_l[vi]),
                    sats_l[vi], hdop_l[vi], True, now,
                )
                position_enu = pos_tuples[vi]
                vi += 1
            else:
                true = tuple(pos_l[k])
                fix = GpsFix(to_geo(*true), 0, 99.0, False, now)
                position_enu = true
            if ii < n_imu and imu_rows[ii] == k:
                imu_velocity = iv_tuples[ii]
                ii += 1
            else:
                imu_velocity = (0.0, 0.0, 0.0)
            sample = Telemetry(
                ids[k], now, mode_str[k], position_enu, tuple(vel_l[k]), fix,
                imu_velocity, soc_l[k], bt_l[j], cams[k].health, wv_l[j],
            )
            uavs[k]._last_telemetry = now
            items_append((topics[k], sample, ids[k]))
        self.bus.publish_many(items, now)
