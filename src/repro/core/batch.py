"""Batched (structure-of-arrays) assurance plane: ConSert + SafeDrones + EDDI.

PR 4 vectorized the fleet *physics*; this module vectorizes the fleet's
*safety layer*. The scalar reference path steps one EDDI at a time
(:func:`repro.core.adapters.build_uav_eddi` + :class:`repro.core.eddi.Eddi`
+ :class:`repro.core.decider.MissionDecider`), which is linear in fleet
size. Here the monitor and diagnose phases of the same cycle run as
fleet-wide array operations:

* GPS fixes, quality draws and IMU velocities are gathered for the whole
  fleet from the shared noise channels into one evidence array per
  runtime-evidence input;
* one template :class:`UavConSertNetwork` is flattened
  (:func:`repro.core.conserts.flatten`), the same evaluator every
  per-UAV network runs, and its program runs once per row over those
  arrays.

Everything else is the scalar code: SafeDrones is one
:class:`repro.safedrones.monitor.SafeDronesMonitor` per row, fed the
row's measured temperature; responses come from one
:class:`repro.core.eddi.EddiResponder` per row, and the mission verdict
from :func:`repro.core.decider.mission_decision`.

Selection mirrors the fleet engine: :func:`build_assurance` follows
``world.engine``, which the world builders pick from the fleet size
(:func:`repro.uav.world.engine_for`).

Bit-exactness contract
----------------------
The batched plane must agree with the scalar stack to the last bit — the
outputs feed discrete branches (guarantee demotion, mission verdicts)
where any ULP difference compounds. The rules (same as
:mod:`repro.uav.fleet`):

* every arithmetic expression mirrors the scalar code's operation order
  exactly;
* transcendentals the scalar code computes with :mod:`math` stay
  per-row :mod:`math` calls — ``np.exp`` is NOT bit-identical to
  ``math.exp``;
* sensor noise comes from the same per-channel fleet streams
  (``ch_temp``/``ch_gps``/``ch_quality``/``ch_imu``), consumed in the
  same per-row order the scalar adapter consumes them.

``tests/test_assurance_equivalence.py`` is the differential proof.

Known, documented deviations (none observable by the equivalence suite):

* no ``eddi.monitor`` / ``eddi.diagnose`` obs spans (the ``eddi.respond``
  span, counters and events still fire);
* within one cycle, obs events are grouped by phase (all spoof-detected
  events, then all guarantee transitions) instead of interleaved per UAV;
* error raising: validations run phase-by-phase over all rows and report
  the first offending row, so when *different* UAVs would raise from
  *different* phases the scalar stack may name another one first;
* ``PeerTelemetryMonitor`` / ``attach_degraded_comm`` are not batched —
  ``comm_links_ok`` and ``peer_telemetry_fresh`` stay at their defaults
  (exactly like the stock ``build_fleet_eddis`` wiring);
* adopting UAVs after the plane was built is unsupported (``step``
  raises ``RuntimeError`` if the fleet grew).
"""

from __future__ import annotations

import numpy as np

from repro.core.adapters import build_fleet_eddis
from repro.core.conserts import flatten
from repro.core.decider import MissionDecider, MissionDecision, mission_decision
from repro.core.eddi import EddiResponder
from repro.core.uav_network import UavConSertNetwork, UavGuarantee
from repro.safedrones.monitor import (
    ReliabilityAssessment,
    ReliabilityLevel,
    SafeDronesMonitor,
)
from repro.security.spoofing import GpsSpoofingDetector


# --------------------------------------------------------------------------
# Assurance planes: one step()/decide() facade per engine
# --------------------------------------------------------------------------
class ScalarAssurancePlane:
    """The reference assurance plane: per-UAV EDDIs + mission decider.

    Thin facade over :func:`build_fleet_eddis` and
    :class:`MissionDecider` exposing the same accessor surface as
    :class:`BatchAssurancePlane`, so the differential suite (and callers)
    can drive either engine through one API. Works on scalar *and*
    vectorized worlds (adopted sensors consume the shared fleet streams
    through their channel-backed noise sources).
    """

    engine = "scalar"

    def __init__(self, world, cl_range_m: float = 120.0) -> None:
        self.world = world
        self.cl_range_m = cl_range_m
        self.eddis = build_fleet_eddis(world, cl_range_m=cl_range_m)
        self.decider = MissionDecider()
        for _, stack in self.eddis.values():
            self.decider.add_uav(stack.network)

    def step(self, now: float) -> dict[str, UavGuarantee]:
        """Run one assurance cycle for every UAV; uav_id -> guarantee."""
        return {uid: eddi.step(now) for uid, (eddi, _) in self.eddis.items()}

    def decide(self) -> MissionDecision:
        """Evaluate the mission-level Σ node over all UAVs."""
        return self.decider.decide()

    @property
    def uav_ids(self) -> list[str]:
        return list(self.eddis)

    def guarantee_trace(self, uav_id: str):
        return self.eddis[uav_id][0].guarantee_trace

    def response_log(self, uav_id: str):
        return self.eddis[uav_id][0].response_log

    def current_guarantee(self, uav_id: str):
        return self.eddis[uav_id][0].current_guarantee

    def consert_offers(self, uav_id: str) -> dict[str, str | None]:
        """Currently offered guarantee name per ConSert (None = none)."""
        network = self.eddis[uav_id][1].network
        out: dict[str, str | None] = {}
        for name, consert in network.conserts().items():
            offered = consert.evaluate()
            out[name] = offered.name if offered is not None else None
        return out

    def evidence(self, uav_id: str) -> dict[str, bool]:
        """Current value of every runtime-evidence input."""
        network = self.eddis[uav_id][1].network
        out: dict[str, bool] = {}
        for consert in network.conserts().values():
            for node in consert.evidence_nodes():
                out[node.name] = bool(node.value)
        return out

    def assessment(self, uav_id: str) -> ReliabilityAssessment | None:
        return self.eddis[uav_id][1].safedrones.latest

    def spoof_detector(self, uav_id: str) -> GpsSpoofingDetector:
        return self.eddis[uav_id][1].spoof_detector

    def on_guarantee(self, uav_id: str, guarantee, callback) -> None:
        self.eddis[uav_id][0].on_guarantee(guarantee, callback)


class BatchAssurancePlane:
    """Structure-of-arrays assurance plane over a vectorized world.

    Requires a vectorized world (``world.engine == "vectorized"``) — the
    plane consumes sensor noise straight from the fleet's prefetched
    channels (the same per-row streams the scalar adapter consumes through
    its sensors), reads fleet state from the shared arrays, and runs the
    flattened ConSert program over one evidence row per UAV.
    """

    engine = "vectorized"

    def __init__(self, world, cl_range_m: float = 120.0) -> None:
        fleet = world._fleet
        if fleet is None:
            raise ValueError("vectorized assurance needs a vectorized world")
        self.world = world
        self.fleet = fleet
        self.cl_range_m = cl_range_m
        items = list(world.uavs.items())
        self._ids = [uav_id for uav_id, _ in items]
        self._uav_list = [uav for _, uav in items]
        n = len(items)
        if n != fleet.arrays.n:
            raise RuntimeError("world UAV registry and fleet arrays disagree")
        self._n = n
        self._row = {uav_id: k for k, uav_id in enumerate(self._ids)}
        template = UavConSertNetwork(uav_id="__batch__")
        template.set_reliability_level("high")
        flat = flatten(template.uav)
        self._program = flat.program
        #: ``(field, program output slot, guarantee names)`` per ConSert.
        slot = {id(consert): k for k, consert in enumerate(flat.conserts)}
        self._offer_slots = tuple(
            (name, slot[id(consert)], tuple(consert.guarantee_names()))
            for name, consert in template.conserts().items()
        )
        #: Enum members in offer-index order for the top-level ConSert,
        #: so batched results keep ``is`` identity with scalar ones.
        self._uav_guarantees = tuple(
            UavGuarantee(name) for name in template.uav.guarantee_names()
        )
        self.evidence_arrays = {
            node.name: np.full(n, node.value, dtype=bool) for node in flat.evidence
        }
        #: The arrays in program-argument order.
        self._columns = [self.evidence_arrays[node.name] for node in flat.evidence]
        self._safedrones = [
            SafeDronesMonitor(uav_id=uav_id, rotor_count=uav.spec.rotor_count)
            for uav_id, uav in items
        ]
        self._detectors = [GpsSpoofingDetector() for _ in range(n)]
        self._responders = [
            EddiResponder(name=f"{uav_id}-eddi") for uav_id in self._ids
        ]
        self._gps = [uav.sensors.gps for uav in self._uav_list]
        self._imus = [uav.sensors.imu for uav in self._uav_list]
        self._cams = [uav.sensors.camera for uav in self._uav_list]
        # Plane-local spoof/noise caches: the adapter samples sensors at
        # plane-step time (after attackers may have mutated offsets this
        # tick), so the fleet engine's own caches cannot be reused.
        self._spoof = np.zeros((n, 3))
        self._spoof_cache: list = [None] * n
        self._spoofed = np.zeros(n, dtype=bool)
        self._noise = np.zeros(n)
        self._noise_cache: list = [None] * n
        for k, gps in enumerate(self._gps):
            offset = gps.spoof_offset_m
            self._spoof_cache[k] = offset
            self._spoof[k] = offset
            self._spoofed[k] = any(abs(o) > 1e-9 for o in offset)
            self._noise_cache[k] = gps.noise_std_m
            self._noise[k] = gps.noise_std_m
        self._imu_std = np.array(
            [imu.noise_std_mps for imu in self._imus], dtype=float
        )
        self._temp_std = np.array(
            [uav.sensors.temperature.noise_std_c for uav in self._uav_list],
            dtype=float,
        )

    # ----------------------------------------------------------------- step
    def step(self, now: float) -> dict[str, UavGuarantee]:
        """Run one fleet-wide monitor/diagnose/respond cycle."""
        fleet = self.fleet
        arrays = fleet.arrays
        n = self._n
        if arrays.n != n:
            raise RuntimeError(
                "fleet grew after the assurance plane was built; rebuild "
                "with build_assurance()"
            )
        if n == 0:
            return {}
        dt = self.world.dt
        evidence = self.evidence_arrays

        # --- gather per-UAV flags (one tight pass, change-detected) -------
        spoof_cache = self._spoof_cache
        noise_cache = self._noise_cache
        gps_list = self._gps
        imus = self._imus
        cams = self._cams
        uav_list = self._uav_list
        valid_rows: list[int] = []
        imu_rows: list[int] = []
        soc_l = [0.0] * n
        temp_true = [0.0] * n
        motors = [0] * n
        cam_ok = np.zeros(n, dtype=bool)
        for k in range(n):
            uav = uav_list[k]
            gps = gps_list[k]
            offset = gps.spoof_offset_m
            if offset is not spoof_cache[k]:
                spoof_cache[k] = offset
                self._spoof[k] = offset
                self._spoofed[k] = any(abs(o) > 1e-9 for o in offset)
            std = gps.noise_std_m
            if std != noise_cache[k]:
                noise_cache[k] = std
                self._noise[k] = std
            battery = uav.battery
            soc_l[k] = battery.soc
            temp_true[k] = battery.temp_c
            motors[k] = uav.motors_failed
            cam_ok[k] = cams[k].operational
            if not (gps.denied or not gps.healthy):
                valid_rows.append(k)
                if imus[k].healthy:
                    imu_rows.append(k)

        # --- SafeDrones -> reliability evidence ---------------------------
        zt = fleet.ch_temp.take_all()[:n, 0]
        temp_meas = (np.array(temp_true, dtype=float) + self._temp_std * zt).tolist()
        safedrones = self._safedrones
        high, low = ReliabilityLevel.HIGH, ReliabilityLevel.LOW
        rel_high = [False] * n
        rel_medium = [False] * n
        for k in range(n):
            level = safedrones[k].update(now, soc_l[k], temp_meas[k], motors[k]).level
            rel_high[k] = level is high
            rel_medium[k] = level is not low
        evidence["reliability_high"][:] = rel_high
        evidence["reliability_medium"][:] = rel_medium

        # --- GPS quality + spoof cross-check ------------------------------
        quality = np.zeros(n, dtype=bool)
        n_valid = len(valid_rows)
        n_imu = len(imu_rows)
        if n_valid:
            pos = arrays.position[:n]
            if n_valid == n:
                z = fleet.ch_gps.take_all()[:n]
                u = fleet.ch_quality.take_all()[:n]
                noisy = (pos + self._spoof) + self._noise[:, None] * z
                spoofed = self._spoofed
            else:
                va = np.array(valid_rows)
                z = fleet.ch_gps.take(va)
                u = fleet.ch_quality.take(va)
                noisy = (pos[va] + self._spoof[va]) + self._noise[va, None] * z
                spoofed = self._spoofed[va]
            _, _, _, east, north, up = fleet._roundtrip(noisy)
            sats = np.where(
                spoofed,
                6 + (u[:, 0] * 3.0).astype(np.int64),
                7 + (u[:, 0] * 6.0).astype(np.int64),
            )
            hdop = np.where(
                spoofed, 1.2 + 1.0 * u[:, 1], 0.7 + 0.7 * u[:, 1]
            )
            ok = (sats >= 6) & (hdop <= 2.5)
            if n_valid == n:
                quality[:] = ok
            else:
                quality[va] = ok

            if n_imu:
                if n_imu == n:
                    zi = fleet.ch_imu.take_all()[:n]
                    imu_vel = (
                        arrays.velocity[:n] + arrays.drift[:n]
                    ) + self._imu_std[:, None] * zi
                else:
                    ia = np.array(imu_rows)
                    zi = fleet.ch_imu.take(ia)
                    imu_vel = (
                        arrays.velocity[ia] + arrays.drift[ia]
                    ) + self._imu_std[ia, None] * zi
                iv_l = imu_vel.tolist()

            no_attack = evidence["no_attack_detected"]
            detectors = self._detectors
            east_l = east.tolist()
            north_l = north.tolist()
            up_l = up.tolist()
            ii = 0
            for i, k in enumerate(valid_rows):
                if ii < n_imu and imu_rows[ii] == k:
                    imu_velocity = tuple(iv_l[ii])
                    ii += 1
                else:
                    imu_velocity = (0.0, 0.0, 0.0)
                verdict = detectors[k].update(
                    now, (east_l[i], north_l[i], up_l[i]), imu_velocity, dt
                )
                no_attack[k] = not verdict.spoofed
        evidence["gps_quality_ok"][:] = quality

        # --- vision health -------------------------------------------------
        evidence["camera_healthy"][:] = cam_ok
        evidence["drone_detection_ok"][:] = cam_ok

        # --- communication: collaborator availability ---------------------
        neighbors = evidence["nearby_uavs_available"]
        if n <= 1:
            neighbors[:] = False
        else:
            pos = arrays.position[:n]
            de = pos[:, 0][:, None] - pos[:, 0][None, :]
            dn = pos[:, 1][:, None] - pos[:, 1][None, :]
            du = pos[:, 2][:, None] - pos[:, 2][None, :]
            dist = ((de * de + dn * dn) + du * du) ** 0.5
            near = dist <= self.cl_range_m
            np.fill_diagonal(near, False)
            neighbors[:] = near.any(axis=1)

        # --- diagnose + respond -------------------------------------------
        responders = self._responders
        out: dict[str, UavGuarantee] = {}
        for k, (uav_id, guarantee) in enumerate(zip(self._ids, self._diagnose())):
            responders[k].respond(now, guarantee)
            out[uav_id] = guarantee
        return out

    def _diagnose(self) -> list[UavGuarantee]:
        """Every row's UAV-level guarantee under the current evidence."""
        program = self._program
        uav_enum = self._uav_guarantees
        columns = [column.tolist() for column in self._columns]
        return [uav_enum[program(*row)[-1]] for row in zip(*columns)]

    # --------------------------------------------------------------- decide
    def decide(self) -> MissionDecision:
        """Mission-level Σ verdict over the batched guarantees."""
        n = self._n
        if n == 0:
            raise RuntimeError("no UAVs registered with the decider")
        return mission_decision(dict(zip(self._ids, self._diagnose())))

    # ------------------------------------------------------------ accessors
    @property
    def uav_ids(self) -> list[str]:
        return list(self._ids)

    def guarantee_trace(self, uav_id: str):
        return self._responders[self._row[uav_id]].guarantee_trace

    def response_log(self, uav_id: str):
        return self._responders[self._row[uav_id]].response_log

    def current_guarantee(self, uav_id: str):
        return self._responders[self._row[uav_id]].current_guarantee

    def consert_offers(self, uav_id: str) -> dict[str, str | None]:
        """Currently offered guarantee name per ConSert (None = none)."""
        row = self._row[uav_id]
        offers = self._program(*[bool(column[row]) for column in self._columns])
        return {
            name: names[offers[k]] if offers[k] >= 0 else None
            for name, k, names in self._offer_slots
        }

    def evidence(self, uav_id: str) -> dict[str, bool]:
        """Current value of every runtime-evidence input."""
        row = self._row[uav_id]
        return {
            name: bool(values[row])
            for name, values in self.evidence_arrays.items()
        }

    def assessment(self, uav_id: str) -> ReliabilityAssessment | None:
        return self._safedrones[self._row[uav_id]].latest

    def spoof_detector(self, uav_id: str) -> GpsSpoofingDetector:
        return self._detectors[self._row[uav_id]]

    def on_guarantee(self, uav_id: str, guarantee, callback) -> None:
        self._responders[self._row[uav_id]].on_guarantee(guarantee, callback)


def build_assurance(world, cl_range_m: float = 120.0):
    """Build the assurance plane that matches ``world.engine``.

    A scalar world gets the per-UAV plane; a vectorized world gets the
    batched plane, which consumes the fleet's shared noise channels.
    """
    if world.engine == "vectorized":
        return BatchAssurancePlane(world, cl_range_m=cl_range_m)
    return ScalarAssurancePlane(world, cl_range_m=cl_range_m)
