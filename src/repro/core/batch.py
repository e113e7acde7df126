"""Batched (structure-of-arrays) assurance plane: ConSert + SafeDrones + EDDI.

PR 4 vectorized the fleet *physics*; this module vectorizes the fleet's
*safety layer*. The scalar reference path steps one EDDI at a time
(:func:`repro.core.adapters.build_uav_eddi` + :class:`repro.core.eddi.Eddi`
+ :class:`repro.core.decider.MissionDecider`), which is linear in fleet
size. Here the monitor and diagnose phases of the same cycle run as
fleet-wide array operations:

* ConSert gate trees are compiled once into boolean-array programs
  (:class:`CompiledConSerts`) and evaluated for all UAVs at once;
* the SafeDrones battery/processor/propulsion models run as stacked
  arrays (:class:`BatchSafeDrones`) — each battery row steps through the
  same closed-form kernel the scalar monitor uses
  (:func:`repro.safedrones.battery.battery_transient`), and propulsion
  PoF comes from the scalar model's memo (a miss solves the closed form
  :func:`repro.safedrones.propulsion.motor_transient`);
* GPS fixes, quality draws and IMU velocities are gathered for the whole
  fleet from the shared noise channels.

Everything else is the scalar code: SafeML reports come from each row's
:meth:`repro.safeml.monitor.SafeMlMonitor.report`, responses from one
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
* transcendentals the scalar code computes with :mod:`math`
  (``math.exp`` in the Arrhenius/SoC/processor factors, ``math.dist`` in
  the spoof detector) stay per-row :mod:`math` calls — ``np.exp`` is NOT
  bit-identical to ``math.exp``;
* sensor noise comes from the same per-channel fleet streams
  (``ch_temp``/``ch_gps``/``ch_quality``/``ch_imu``), consumed in the
  same per-row order the scalar adapter consumes them.

``tests/test_assurance_equivalence.py`` is the differential proof.

Known, documented deviations (none observable by the equivalence suite):

* no ``eddi.monitor`` / ``eddi.diagnose`` obs spans (the ``eddi.respond``
  span, counters and events still fire);
* within one cycle, obs events are grouped by phase (all spoof-detected
  events, then all guarantee transitions) instead of interleaved per UAV;
* :class:`BatchSafeDrones` keeps only the latest assessment arrays, not
  a per-UAV history list (``assessment(row)`` synthesizes the newest
  :class:`ReliabilityAssessment` on demand);
* error raising: validations run phase-by-phase over all rows and report
  the first offending row, so when *different* UAVs would raise from
  *different* phases the scalar stack may name another one first;
* ``PeerTelemetryMonitor`` / ``attach_degraded_comm`` are not batched —
  ``peer_telemetry_fresh`` stays at its default (exactly like the stock
  ``build_fleet_eddis`` wiring);
* adopting UAVs after the plane was built is unsupported (``step``
  raises ``RuntimeError`` if the fleet grew).
"""

from __future__ import annotations

import math
from dataclasses import fields as dataclass_fields

import numpy as np

from repro.core.adapters import build_fleet_eddis
from repro.core.conserts import AndNode, ConSert, Demand, OrNode, RuntimeEvidence
from repro.core.decider import MissionDecider, MissionDecision, mission_decision
from repro.core.eddi import EddiResponder
from repro.core.uav_network import UavConSertNetwork, UavGuarantee
from repro.safedrones.battery import (
    BOLTZMANN_EV,
    FAILED,
    BatteryReliabilityModel,
    battery_transient,
)
from repro.safedrones.communication import CommLinkMonitor
from repro.safedrones.monitor import ReliabilityAssessment, ReliabilityLevel
from repro.safedrones.processor import ProcessorReliabilityModel
from repro.safedrones.propulsion import PropulsionModel
from repro.safeml.monitor import SafeMlReport
from repro.security.spoofing import GpsSpoofingDetector


# --------------------------------------------------------------------------
# Compiled ConSert network: gate trees -> boolean array programs
# --------------------------------------------------------------------------
class CompiledConSerts:
    """The Fig. 1 ConSert network compiled to boolean NumPy programs.

    Every UAV shares the same network *shape* (only the evidence values
    differ), so the trees are walked once on a template
    :class:`UavConSertNetwork` and turned into closures over

    * ``evidence``: ``{evidence name -> (n,) bool array}`` and
    * ``offers``: ``{consert field -> (n,) intp array}`` of the guarantee
      index each row's ConSert currently offers (``-1`` = none).

    Demands become boolean lookup tables over the provider's offer index
    (index ``-1`` lands on a trailing always-False slot, mirroring a
    provider that offers nothing). Evaluation order is a topological sort
    of the demand graph, so provider offers exist before consumers read
    them — exactly the bottom-up order lazy scalar evaluation induces.
    """

    def __init__(self) -> None:
        template = UavConSertNetwork(uav_id="__batch__")
        template.set_reliability_level("high")
        fields: list[str] = []
        for f in dataclass_fields(UavConSertNetwork):
            if isinstance(getattr(template, f.name, None), ConSert):
                fields.append(f.name)
        self.fields = tuple(fields)
        owner = {id(getattr(template, name)): name for name in fields}

        deps: dict[str, set[str]] = {}
        for name in fields:
            consert = getattr(template, name)
            found: set[str] = set()
            for demand in consert.demand_nodes():
                for provider in demand.providers:
                    pname = owner.get(id(provider))
                    if pname is None:
                        raise ValueError(
                            f"ConSert {consert.name!r} demands from a provider "
                            "outside the network"
                        )
                    found.add(pname)
            deps[name] = found
        ordered: list[str] = []
        placed: set[str] = set()
        remaining = set(fields)
        while remaining:
            ready = [
                name for name in fields
                if name in remaining and not (deps[name] - placed)
            ]
            if not ready:
                raise ValueError("ConSert demand graph has a cycle")
            for name in ready:
                ordered.append(name)
                placed.add(name)
                remaining.discard(name)
        self.order = tuple(ordered)

        self.guarantee_names = {
            name: tuple(getattr(template, name).guarantee_names())
            for name in fields
        }
        defaults: dict[str, bool] = {}
        for name in fields:
            for node in getattr(template, name).evidence_nodes():
                defaults[node.name] = bool(node.value)
        self.evidence_defaults = defaults

        self.programs = {}
        for name in fields:
            progs = []
            for guarantee in getattr(template, name).guarantees:
                if guarantee.condition is None:
                    progs.append(None)
                else:
                    progs.append(self._compile(guarantee.condition, owner))
            self.programs[name] = tuple(progs)
        #: Enum singletons in offer-index order for the top-level ConSert,
        #: so batched results preserve ``is`` identity with scalar ones.
        self.uav_guarantees = tuple(
            UavGuarantee(gname) for gname in self.guarantee_names["uav"]
        )

    def _compile(self, node, owner):
        if isinstance(node, RuntimeEvidence):
            def run(evidence, offers, _name=node.name):
                return evidence[_name]
            return run
        if isinstance(node, Demand):
            branches = []
            for provider in node.providers:
                pfield = owner[id(provider)]
                names = self.guarantee_names[pfield]
                lut = np.zeros(len(names) + 1, dtype=bool)
                for gi, gname in enumerate(names):
                    if gname in node.accepted_guarantees:
                        lut[gi] = True
                branches.append((pfield, lut))
            if len(branches) == 1:
                pfield, lut = branches[0]

                def run(evidence, offers, _p=pfield, _lut=lut):
                    return _lut[offers[_p]]
                return run

            def run(evidence, offers, _branches=tuple(branches)):
                out = None
                for pfield, lut in _branches:
                    cond = lut[offers[pfield]]
                    out = cond if out is None else (out | cond)
                return out
            return run
        if isinstance(node, (AndNode, OrNode)):
            children = tuple(self._compile(child, owner) for child in node.children)
            if len(children) == 1:
                return children[0]
            if isinstance(node, AndNode):
                def run(evidence, offers, _children=children):
                    out = _children[0](evidence, offers)
                    for child in _children[1:]:
                        out = out & child(evidence, offers)
                    return out
                return run

            def run(evidence, offers, _children=children):
                out = _children[0](evidence, offers)
                for child in _children[1:]:
                    out = out | child(evidence, offers)
                return out
            return run
        raise TypeError(f"cannot compile ConSert node {type(node)!r}")

    def evaluate(self, evidence: dict, n: int) -> dict:
        """Offer index per row for every ConSert (``-1`` = none offered)."""
        offers: dict[str, np.ndarray] = {}
        for name in self.order:
            offer = np.full(n, -1, dtype=np.intp)
            pending = np.ones(n, dtype=bool)
            for gi, prog in enumerate(self.programs[name]):
                if prog is None:
                    offer[pending] = gi
                    break
                cond = prog(evidence, offers)
                offer[pending & cond] = gi
                pending = pending & ~cond
                if not pending.any():
                    break
            offers[name] = offer
        return offers


_COMPILED: CompiledConSerts | None = None


def compiled_conserts() -> CompiledConSerts:
    """The process-wide compiled network (shape is identical for all UAVs)."""
    global _COMPILED
    if _COMPILED is None:
        _COMPILED = CompiledConSerts()
    return _COMPILED


# --------------------------------------------------------------------------
# Batched SafeDrones: battery/processor/propulsion over the whole fleet
# --------------------------------------------------------------------------
class BatchSafeDrones:
    """Fleet-wide :class:`~repro.safedrones.monitor.SafeDronesMonitor`.

    One battery Markov distribution row per UAV, each integrated with the
    scalar model's closed-form kernel; Arrhenius/SoC/processor thermal
    factors stay per-row ``math.exp`` (bit-exactness). Propulsion PoF
    comes from one :class:`PropulsionModel` per rotor count, whose memo
    holds the same bits the scalar monitor's model returns.
    """

    def __init__(
        self,
        n: int,
        rotor_counts,
        pof_abort_threshold: float = 0.9,
        mission_horizon_s: float = 600.0,
        soc_collapse_threshold: float = 0.15,
    ) -> None:
        self.n = n
        self.pof_abort_threshold = pof_abort_threshold
        self.mission_horizon_s = mission_horizon_s
        self.soc_collapse_threshold = soc_collapse_threshold
        battery = BatteryReliabilityModel()
        self._bat_rate = battery.base_rate_per_s
        self._bat_ea_b = battery.activation_energy_ev / BOLTZMANN_EV
        self._bat_inv_tref = 1.0 / (battery.reference_temp_c + 273.15)
        self._bat_gamma = battery.soc_stress_gamma
        self._bat_knee = battery.soc_stress_knee
        processor = ProcessorReliabilityModel()
        self._proc_ser = processor.ser_rate_per_hour
        self._proc_wearout = processor.wearout_rate_per_hour
        self._proc_ea_b = processor.activation_energy_ev / BOLTZMANN_EV
        self._proc_inv_tref = 1.0 / (processor.reference_temp_c + 273.15)
        self._dist = np.zeros((n, 4))
        if n:
            self._dist[:, 0] = 1.0
        self._last_time: float | None = None
        self._last_soc: np.ndarray | None = None
        self.battery_fault_detected = np.zeros(n, dtype=bool)
        self._motors = [0] * n
        self._hazard = [0.0] * n
        self._rotor_counts = [int(r) for r in rotor_counts]
        self._propulsion = {
            r: PropulsionModel(rotor_count=r) for r in set(self._rotor_counts)
        }
        self._updated = False
        self._stamp = 0.0
        self.failure_probability = np.zeros(n)
        self.battery_pof = np.zeros(n)
        self.propulsion_pof = np.zeros(n)
        self.processor_pof = np.zeros(n)
        self.rel_high = np.zeros(n, dtype=bool)
        self.rel_medium = np.zeros(n, dtype=bool)
        self.abort_recommended = np.zeros(n, dtype=bool)

    def update(self, now: float, soc, temp_c, motors_failed=None) -> np.ndarray:
        """Feed one fleet-wide telemetry sample; returns total PoF per row.

        ``soc`` / ``temp_c`` are (n,) arrays; ``motors_failed`` is an
        optional per-row int sequence (motor-state sync, exactly the
        scalar monitor's ``while ... record_motor_failure()`` loop).
        """
        n = self.n
        mexp = math.exp
        soc = np.asarray(soc, dtype=float)
        temp_c = np.asarray(temp_c, dtype=float)
        soc_l = soc.tolist()
        temp_l = temp_c.tolist()

        if motors_failed is not None:
            motors = self._motors
            for k in range(n):
                m = motors_failed[k]
                if motors[k] < m:
                    motors[k] = m

        if self._last_soc is not None and n:
            last_l = self._last_soc.tolist()
            threshold = self.soc_collapse_threshold
            fault = self.battery_fault_detected
            dist = self._dist
            for k in range(n):
                if not fault[k] and last_l[k] - soc_l[k] >= threshold:
                    fault[k] = True
                    # register_cell_fault: shift surviving mass one stage.
                    p0 = float(dist[k, 0])
                    p1 = float(dist[k, 1])
                    tail = float(dist[k, 2]) + float(dist[k, 3])
                    dist[k, 0] = 0.0
                    dist[k, 1] = p0
                    dist[k, 2] = p1
                    dist[k, 3] = tail
        self._last_soc = soc.copy()

        first = self._last_time is None
        if first:
            self._last_time = now
            dt = 0.0
        else:
            dt = now - self._last_time
            if dt < 0.0:
                raise ValueError("time went backwards")
            self._last_time = now

        if not first and dt != 0.0 and n:
            dist = self._dist
            base_rate = self._bat_rate
            ea_b = self._bat_ea_b
            inv_tref = self._bat_inv_tref
            gamma = self._bat_gamma
            knee = self._bat_knee
            for k in range(n):
                t = max(temp_l[k], -200.0) + 273.15
                arrhenius = mexp(ea_b * (inv_tref - 1.0 / t))
                s = min(max(soc_l[k], 0.0), 1.0)
                socf = 1.0 if s >= knee else mexp(gamma * (knee - s))
                dist[k] = battery_transient(dist[k], base_rate * (arrhenius * socf), dt)

            ser = self._proc_ser
            wearout_rate = self._proc_wearout
            p_ea_b = self._proc_ea_b
            p_inv_tref = self._proc_inv_tref
            hazard = self._hazard
            for k in range(n):
                t = (temp_l[k] + 15.0) + 273.15
                wearout = wearout_rate * mexp(p_ea_b * (p_inv_tref - 1.0 / t))
                hazard[k] = hazard[k] + ((ser + wearout) / 3600.0) * dt

        battery_pof = self._dist[:, FAILED].copy()
        hazard = self._hazard
        proc = [0.0] * n
        for k in range(n):
            proc[k] = 1.0 - mexp(-hazard[k])
        proc_pof = np.array(proc, dtype=float)
        rotors = self._rotor_counts
        motors = self._motors
        horizon = self.mission_horizon_s
        prop = [0.0] * n
        for k in range(n):
            model = self._propulsion[rotors[k]]
            model.motors_failed = motors[k]
            prop[k] = model.failure_probability(horizon)
        prop_pof = np.array(prop, dtype=float)

        # Fault-tree CBE range checks, in scalar evaluation order; the
        # positive-form mask makes NaN raise exactly like the scalar path.
        bad = ~((battery_pof >= 0.0) & (battery_pof <= 1.0 + 1e-9))
        if bad.any():
            k = int(np.flatnonzero(bad)[0])
            raise ValueError(
                f"battery_failure: model probability {float(battery_pof[k])} "
                "out of range"
            )
        bad = ~((proc_pof >= 0.0) & (proc_pof <= 1.0 + 1e-9))
        if bad.any():
            k = int(np.flatnonzero(bad)[0])
            raise ValueError(
                f"processor_failure: model probability {float(proc_pof[k])} "
                "out of range"
            )
        clipped_b = np.minimum(battery_pof, 1.0)
        clipped_p = np.minimum(proc_pof, 1.0)
        total = 1.0 - (1.0 - clipped_b) * (1.0 - clipped_p)
        total = 1.0 - (1.0 - total) * (1.0 - prop_pof)
        bad = ~((total >= 0.0) & (total <= 1.0))
        if bad.any():
            k = int(np.flatnonzero(bad)[0])
            raise ValueError(
                f"probability of failure out of range: {float(total[k])}"
            )

        self._stamp = now
        self.failure_probability = total
        self.battery_pof = battery_pof
        self.propulsion_pof = prop_pof
        self.processor_pof = proc_pof
        self.rel_high = total < 0.2
        self.rel_medium = total < 0.6
        self.abort_recommended = total >= self.pof_abort_threshold
        self._updated = True
        return total

    def assessment(self, row: int) -> ReliabilityAssessment | None:
        """The latest per-row assessment (None before the first update)."""
        if not self._updated:
            return None
        total = float(self.failure_probability[row])
        return ReliabilityAssessment(
            stamp=self._stamp,
            failure_probability=total,
            battery_pof=float(self.battery_pof[row]),
            propulsion_pof=float(self.propulsion_pof[row]),
            processor_pof=float(self.processor_pof[row]),
            level=ReliabilityLevel.from_failure_probability(total),
            battery_fault_detected=bool(self.battery_fault_detected[row]),
            abort_recommended=bool(self.abort_recommended[row]),
        )


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
        self._last_now = world.time

    def step(self, now: float) -> dict[str, UavGuarantee]:
        """Run one assurance cycle for every UAV; uav_id -> guarantee."""
        self._last_now = now
        return {uid: eddi.step(now) for uid, (eddi, _) in self.eddis.items()}

    def decide(self) -> MissionDecision:
        """Evaluate the mission-level Σ node over all UAVs."""
        return self.decider.decide()

    @property
    def decider_history(self) -> list[MissionDecision]:
        return self.decider.history

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
        for name in compiled_conserts().fields:
            offered = getattr(network, name).evaluate()
            out[name] = offered.name if offered is not None else None
        return out

    def evidence(self, uav_id: str) -> dict[str, bool]:
        """Current value of every runtime-evidence input."""
        network = self.eddis[uav_id][1].network
        out: dict[str, bool] = {}
        for name in compiled_conserts().fields:
            for node in getattr(network, name).evidence_nodes():
                out[node.name] = bool(node.value)
        return out

    def assessment(self, uav_id: str) -> ReliabilityAssessment | None:
        return self.eddis[uav_id][1].safedrones.latest

    def safeml_report(self, uav_id: str) -> SafeMlReport | None:
        """The SafeML report as of the last step (recomputed; pure).

        Read it before observing new features — the scalar monitor keeps
        no report history, so this re-runs ``report()`` on the current
        window (bit-identical while the window is unchanged).
        """
        stack = self.eddis[uav_id][1]
        if stack.safeml is not None and stack.safeml.window_full:
            return stack.safeml.report(self._last_now)
        return None

    def set_safeml(self, uav_id: str, monitor) -> None:
        self.eddis[uav_id][1].safeml = monitor

    def safeml_monitor(self, uav_id: str):
        return self.eddis[uav_id][1].safeml

    def spoof_detector(self, uav_id: str) -> GpsSpoofingDetector:
        return self.eddis[uav_id][1].spoof_detector

    def link_monitor(self, uav_id: str) -> CommLinkMonitor:
        return self.eddis[uav_id][1].link_monitor

    def on_guarantee(self, uav_id: str, guarantee, callback) -> None:
        self.eddis[uav_id][0].on_guarantee(guarantee, callback)


class BatchAssurancePlane:
    """Structure-of-arrays assurance plane over a vectorized world.

    Requires a vectorized world (``world.engine == "vectorized"``) — the
    plane consumes sensor noise straight from the fleet's prefetched
    channels (the same per-row streams the scalar adapter consumes through
    its sensors), reads fleet state from the shared arrays, and pushes
    evidence through the compiled ConSert programs.
    """

    engine = "vectorized"

    def __init__(self, world, cl_range_m: float = 120.0) -> None:
        fleet = world._fleet
        if fleet is None:
            raise ValueError("vectorized assurance needs a vectorized world")
        self.world = world
        self.fleet = fleet
        self.cl_range_m = cl_range_m
        self.compiled = compiled_conserts()
        items = list(world.uavs.items())
        self._ids = [uav_id for uav_id, _ in items]
        self._uav_list = [uav for _, uav in items]
        n = len(items)
        if n != fleet.arrays.n:
            raise RuntimeError("world UAV registry and fleet arrays disagree")
        self._n = n
        self._row = {uav_id: k for k, uav_id in enumerate(self._ids)}
        self.evidence_arrays = {
            name: np.full(n, default, dtype=bool)
            for name, default in self.compiled.evidence_defaults.items()
        }
        self.safedrones = BatchSafeDrones(
            n, [uav.spec.rotor_count for uav in self._uav_list]
        )
        self._detectors = [GpsSpoofingDetector() for _ in range(n)]
        self._links = [CommLinkMonitor() for _ in range(n)]
        self._safeml: list = [None] * n
        self._safeml_reports: list = [None] * n
        self._responders = [
            EddiResponder(name=f"{uav_id}-eddi") for uav_id in self._ids
        ]
        self.decider_history: list[MissionDecision] = []
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
        temp_meas = np.array(temp_true, dtype=float) + self._temp_std * zt
        self.safedrones.update(
            now, np.array(soc_l, dtype=float), temp_meas, motors
        )
        evidence["reliability_high"][:] = self.safedrones.rel_high
        evidence["reliability_medium"][:] = self.safedrones.rel_medium

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

        # --- vision health + SafeML confidence ----------------------------
        evidence["camera_healthy"][:] = cam_ok
        evidence["drone_detection_ok"][:] = cam_ok
        confidence = evidence["safeml_confidence_ok"]
        for k, monitor in enumerate(self._safeml):
            if monitor is not None and monitor.window_full:
                report = monitor.report(now)
                self._safeml_reports[k] = report
                confidence[k] = report.level.value != "low"

        # --- communication: link quality + collaborator availability ------
        comm = evidence["comm_links_ok"]
        links = self._links
        for k in range(n):
            comm[k] = links[k].assess(now).link_ok
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
        offers = self.compiled.evaluate(evidence, n)
        uav_offer = offers["uav"].tolist()
        uav_enum = self.compiled.uav_guarantees
        responders = self._responders
        ids = self._ids
        out: dict[str, UavGuarantee] = {}
        for k in range(n):
            guarantee = uav_enum[uav_offer[k]]
            responders[k].respond(now, guarantee)
            out[ids[k]] = guarantee
        return out

    # --------------------------------------------------------------- decide
    def decide(self) -> MissionDecision:
        """Mission-level Σ verdict over the batched guarantees."""
        n = self._n
        if n == 0:
            raise RuntimeError("no UAVs registered with the decider")
        offers = self.compiled.evaluate(self.evidence_arrays, n)
        uav_offer = offers["uav"].tolist()
        uav_enum = self.compiled.uav_guarantees
        decision = mission_decision(
            {self._ids[k]: uav_enum[uav_offer[k]] for k in range(n)}
        )
        self.decider_history.append(decision)
        return decision

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
        offers = self.compiled.evaluate(self.evidence_arrays, self._n)
        out: dict[str, str | None] = {}
        for name in self.compiled.fields:
            gi = int(offers[name][row])
            out[name] = self.compiled.guarantee_names[name][gi] if gi >= 0 else None
        return out

    def evidence(self, uav_id: str) -> dict[str, bool]:
        """Current value of every runtime-evidence input."""
        row = self._row[uav_id]
        return {
            name: bool(values[row])
            for name, values in self.evidence_arrays.items()
        }

    def assessment(self, uav_id: str) -> ReliabilityAssessment | None:
        return self.safedrones.assessment(self._row[uav_id])

    def safeml_report(self, uav_id: str) -> SafeMlReport | None:
        return self._safeml_reports[self._row[uav_id]]

    def set_safeml(self, uav_id: str, monitor) -> None:
        row = self._row[uav_id]
        self._safeml[row] = monitor
        self._safeml_reports[row] = None

    def safeml_monitor(self, uav_id: str):
        return self._safeml[self._row[uav_id]]

    def spoof_detector(self, uav_id: str) -> GpsSpoofingDetector:
        return self._detectors[self._row[uav_id]]

    def link_monitor(self, uav_id: str) -> CommLinkMonitor:
        return self._links[self._row[uav_id]]

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
