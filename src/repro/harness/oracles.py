"""Property oracles: invariants every simulation run must satisfy.

The fleet-engine property suite (``tests/test_fleet_properties.py``) and
the differential suite (``tests/test_fleet_equivalence.py``) encode what
a correct simulation looks like: battery charge never rises, no UAV
moves faster than its speed limit allows, a landed UAV stays put, and
the scalar and vectorized engines agree to the bit. This module extracts
those predicates into one importable implementation shared by the tests
and the fuzzing campaign (:mod:`repro.harness.fuzz`), wraps them as
stateful :class:`Oracle` checkers, and provides
:func:`run_scenario_oracles` — the dual-engine harness that runs any
scenario config under the full oracle suite:

``soc_monotonic``
    State of charge is non-increasing for every UAV at every step
    (there is no charger in the simulation; faults only drop it).
``teleport_bound``
    Per-step displacement never exceeds ``v_max * dt`` (plus float
    slack) — the "no teleportation" kinematic bound.
``landed_drift``
    A UAV that touched down stays exactly where it landed.
``engine_lockstep``
    The scalar reference and the vectorized engine agree exactly on
    position, velocity, SoC, temperature, and flight mode at every step
    (the PR-4 bit-identical contract, enforced on arbitrary inputs).
``guarantee_sanity``
    Each UAV's ConSert/EDDI guarantee trace is well-formed: timestamps
    never decrease, every entry is a known guarantee, the response log
    records exactly the transitions (no phantom or missed responses),
    and both engines produce identical guarantee traces.
``assurance_lockstep``
    The scalar assurance plane (per-UAV EDDI stacks + MissionDecider)
    and the batched plane (:mod:`repro.core.batch`) agree exactly —
    every cycle's guarantees, ConSert offers, runtime evidence, and
    mission verdict, plus the full traces at the end of the run (the
    assurance-plane analogue of ``engine_lockstep``).
``planned_path_clearance``
    In a scenario with an ``"obstacles"`` block, every waypoint plan a
    UAV flies (initial missions and every in-flight ``replace``) is
    collision-free leg by leg against the *raw* voxel grid — the
    planner's inflation margin is its own safety buffer, not an excuse.
``no_unhandled_exception``
    The run completes without the simulator raising.
``swarm_tasking``
    The leader–follower task ledger (:mod:`repro.swarm`) is coherent:
    no task is ever owned by two followers at once (assignment intervals
    per task and per follower never overlap), every serviced task has
    exactly one confirmed assignment with non-negative,
    detection-ordered timestamps, every detected PoI ends serviced or
    explicitly orphaned, and the leaders' confirmation counters agree
    with the ledger. Checked by :func:`run_swarm_oracles`, the swarm
    analogue of :func:`run_scenario_oracles` used by the fuzz campaign's
    swarm scenarios.

The runner also honours a scenario-level ``"chaos"`` block — a scripted
simulator *bug* (teleport, SoC jump, or raised exception) used to prove
the oracles catch violations and to exercise the failure shrinker; see
:mod:`repro.harness.fuzz`.
"""

from __future__ import annotations

import math
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.core.batch import build_assurance
from repro.core.uav_network import UavGuarantee
from repro.plan.grid import blocked_legs
from repro.scenario import Scenario, load_scenario
from repro.schema import SAR
from repro.uav.uav import FlightMode
from repro.uav.world import World

#: Slack for the SoC monotonicity check (one ULP of accumulated error).
SOC_RISE_TOL = 1e-15
#: Relative/absolute slack on the kinematic displacement bound.
TELEPORT_REL_TOL = 1e-12
TELEPORT_ABS_TOL = 1e-12
#: Horizon used when neither the caller nor the config pins one.
DEFAULT_HORIZON_S = 60.0
#: Default simulated seconds between EDDI assurance cycles.
DEFAULT_EDDI_PERIOD_S = 2.0


# -------------------------------------------------------------- predicates
def soc_step_ok(prev_soc: float, soc: float, tol: float = SOC_RISE_TOL) -> bool:
    """Whether one SoC step respects monotonic non-increase."""
    return soc <= prev_soc + tol


def teleport_bound_m(v_max: float, dt: float, drift_mps: float = 0.0) -> float:
    """The per-step displacement bound (with float slack) for one UAV.

    ``drift_mps`` is the magnitude of environment-imposed drift (the
    unrejected wind the world adds on top of commanded velocity, see
    ``Environment.apply_wind_drift``); zero in calm air.
    """
    return (v_max + drift_mps) * dt * (1.0 + TELEPORT_REL_TOL) + TELEPORT_ABS_TOL


def teleport_step_ok(
    prev_pos: tuple[float, float, float],
    pos: tuple[float, float, float],
    v_max: float,
    dt: float,
    drift_mps: float = 0.0,
) -> bool:
    """Whether one position step respects the kinematic speed bound."""
    return math.dist(prev_pos, pos) <= teleport_bound_m(v_max, dt, drift_mps)


def landed_step_ok(
    landed_pos: tuple[float, float, float], pos: tuple[float, float, float]
) -> bool:
    """Whether a landed UAV is still exactly at its touchdown point."""
    return pos == landed_pos


# ---------------------------------------------------------------- plumbing
@dataclass(frozen=True)
class Violation:
    """One oracle violation, JSON-able for manifests and repro files."""

    oracle: str
    time: float | None
    uav: str | None
    message: str

    def to_dict(self) -> dict:
        return {
            "oracle": self.oracle,
            "time": self.time,
            "uav": self.uav,
            "message": self.message,
        }


class Oracle:
    """Base class: accumulates violations, capped to bound report size."""

    name = "oracle"

    def __init__(self, max_violations: int = 10) -> None:
        self.violations: list[Violation] = []
        self.suppressed = 0
        self._cap = max_violations

    def record(
        self, time: float | None, uav: str | None, message: str
    ) -> None:
        if len(self.violations) >= self._cap:
            self.suppressed += 1
            return
        self.violations.append(Violation(self.name, time, uav, message))

    def observe(self, world: World, now: float) -> None:
        """Check one completed step (override)."""


class SocMonotonicOracle(Oracle):
    """Battery state of charge never rises."""

    name = "soc_monotonic"

    def __init__(self, **kwargs: Any) -> None:
        super().__init__(**kwargs)
        self._prev: dict[str, float] = {}

    def observe(self, world: World, now: float) -> None:
        for uav_id, uav in world.uavs.items():
            soc = uav.battery.soc
            prev = self._prev.get(uav_id)
            if prev is not None and not soc_step_ok(prev, soc):
                self.record(
                    now, uav_id, f"SoC rose {prev!r} -> {soc!r} in one step"
                )
            self._prev[uav_id] = soc


class TeleportBoundOracle(Oracle):
    """Per-step displacement bounded by ``v_max * dt``."""

    name = "teleport_bound"

    def __init__(self, **kwargs: Any) -> None:
        super().__init__(**kwargs)
        self._prev: dict[str, tuple[float, float, float]] = {}

    def observe(self, world: World, now: float) -> None:
        for uav_id, uav in world.uavs.items():
            pos = uav.dynamics.position
            prev = self._prev.get(uav_id)
            # drift_velocity holds exactly the wind drift the world added
            # to this UAV's position during the step just completed.
            drift = math.hypot(*uav.dynamics.drift_velocity)
            if prev is not None and not teleport_step_ok(
                prev, pos, uav.dynamics.max_speed_mps, world.dt, drift
            ):
                moved = math.dist(prev, pos)
                bound = teleport_bound_m(
                    uav.dynamics.max_speed_mps, world.dt, drift
                )
                self.record(
                    now, uav_id,
                    f"teleported {moved:.6f} m in one step "
                    f"(bound {bound:.6f} m incl. {drift:.3f} m/s wind drift)",
                )
            self._prev[uav_id] = pos


class LandedDriftOracle(Oracle):
    """A landed UAV stays exactly at its touchdown point."""

    name = "landed_drift"

    def __init__(self, **kwargs: Any) -> None:
        super().__init__(**kwargs)
        self._landed_at: dict[str, tuple[float, float, float]] = {}

    def observe(self, world: World, now: float) -> None:
        for uav_id, uav in world.uavs.items():
            pos = uav.dynamics.position
            landed = self._landed_at.get(uav_id)
            if landed is not None:
                if not landed_step_ok(landed, pos):
                    self.record(
                        now, uav_id,
                        f"drifted after landing: {landed!r} -> {pos!r}",
                    )
                    self._landed_at[uav_id] = pos  # report drift once per hop
            elif uav.mode is FlightMode.LANDED:
                self._landed_at[uav_id] = pos


class PlannedPathClearanceOracle(Oracle):
    """Every flown waypoint plan clears the scenario's obstacle field.

    Re-checks a UAV whenever its plan's waypoint *list object* changes
    (``WaypointPlan.replace`` always installs a fresh list), so both the
    initial mission and every in-flight re-plan are verified. Legs are
    checked against the raw grid — the planner searched the inflated one,
    so any contact here means the inflation margin was fully consumed.
    """

    name = "planned_path_clearance"

    def __init__(self, **kwargs: Any) -> None:
        super().__init__(**kwargs)
        # uav_id -> the waypoint list object already verified. Held by
        # reference (not id()) so a freed list's recycled id can never
        # mask a plan change.
        self._checked: dict[str, list] = {}

    def observe(self, world: World, now: float) -> None:
        field = getattr(world, "obstacles", None)
        if field is None:
            return
        for uav_id, uav in world.uavs.items():
            waypoints = uav.plan.waypoints
            if self._checked.get(uav_id) is waypoints:
                continue
            self._checked[uav_id] = waypoints
            if not waypoints:
                continue
            legs = [tuple(uav.dynamics.position)] + [
                tuple(wp) for wp in waypoints
            ]
            for i in blocked_legs(field.grid, legs):
                a, b = legs[i], legs[i + 1]
                self.record(
                    now, uav_id,
                    f"planned leg {tuple(round(v, 1) for v in a)} -> "
                    f"{tuple(round(v, 1) for v in b)} crosses an obstacle",
                )


class EngineLockstepOracle(Oracle):
    """Scalar and vectorized engines agree exactly, state for state."""

    name = "engine_lockstep"

    def compare(self, scalar: World, vector: World, now: float) -> None:
        if set(scalar.uavs) != set(vector.uavs):
            self.record(
                now, None,
                f"fleet membership differs: {sorted(scalar.uavs)} vs "
                f"{sorted(vector.uavs)}",
            )
            return
        for uav_id, uav in scalar.uavs.items():
            peer = vector.uavs[uav_id]
            for label, a, b in (
                ("position", uav.dynamics.position, peer.dynamics.position),
                ("velocity", uav.dynamics.velocity, peer.dynamics.velocity),
                ("soc", uav.battery.soc, peer.battery.soc),
                ("temp_c", uav.battery.temp_c, peer.battery.temp_c),
                ("mode", uav.mode, peer.mode),
            ):
                if a != b:
                    self.record(
                        now, uav_id,
                        f"{label} diverged: scalar={a!r} vectorized={b!r}",
                    )


class GuaranteeSanityOracle(Oracle):
    """ConSert guarantee traces are well-formed and engine-independent."""

    name = "guarantee_sanity"

    def check(self, scalar_plane, vector_plane) -> None:
        for uav_id in scalar_plane.uav_ids:
            trace = scalar_plane.guarantee_trace(uav_id)
            last_t = None
            for t, guarantee in trace:
                if last_t is not None and t < last_t:
                    self.record(
                        t, uav_id,
                        f"guarantee trace time went backwards "
                        f"({last_t} -> {t})",
                    )
                last_t = t
                if not isinstance(guarantee, UavGuarantee):
                    self.record(
                        t, uav_id, f"unknown guarantee {guarantee!r}"
                    )
            transitions = sum(
                1 for prev, cur in zip(trace, trace[1:]) if prev[1] is not cur[1]
            ) + (1 if trace else 0)
            response_log = scalar_plane.response_log(uav_id)
            if len(response_log) != transitions:
                self.record(
                    None, uav_id,
                    f"response log has {len(response_log)} entries for "
                    f"{transitions} guarantee transitions",
                )
            previous = None
            for response in response_log:
                if response.previous is not previous:
                    self.record(
                        response.stamp, uav_id,
                        "response chain broken: expected previous="
                        f"{previous!r}, got {response.previous!r}",
                    )
                if response.guarantee is response.previous:
                    self.record(
                        response.stamp, uav_id,
                        f"self-transition response {response.guarantee!r}",
                    )
                previous = response.guarantee
            mine = [(t, g.value) for t, g in trace]
            theirs = [
                (t, g.value) for t, g in vector_plane.guarantee_trace(uav_id)
            ]
            if mine != theirs:
                self.record(
                    None, uav_id,
                    "guarantee traces diverge between engines "
                    f"({len(mine)} vs {len(theirs)} entries)",
                )


class AssuranceLockstepOracle(Oracle):
    """Scalar and batched assurance planes agree exactly, cycle for cycle."""

    name = "assurance_lockstep"

    def compare(self, scalar_plane, batched_plane, now: float) -> None:
        """Check one completed assurance cycle on both planes."""
        if scalar_plane.uav_ids != batched_plane.uav_ids:
            self.record(
                now, None,
                f"plane membership differs: {scalar_plane.uav_ids} vs "
                f"{batched_plane.uav_ids}",
            )
            return
        for uav_id in scalar_plane.uav_ids:
            a = scalar_plane.current_guarantee(uav_id)
            b = batched_plane.current_guarantee(uav_id)
            if a is not b:
                self.record(
                    now, uav_id,
                    f"guarantee diverged: scalar={a!r} batched={b!r}",
                )
            offers_a = scalar_plane.consert_offers(uav_id)
            offers_b = batched_plane.consert_offers(uav_id)
            if offers_a != offers_b:
                self.record(
                    now, uav_id,
                    f"ConSert offers diverged: {offers_a!r} vs {offers_b!r}",
                )
            evidence_a = scalar_plane.evidence(uav_id)
            evidence_b = batched_plane.evidence(uav_id)
            if evidence_a != evidence_b:
                self.record(
                    now, uav_id,
                    f"runtime evidence diverged: {evidence_a!r} vs "
                    f"{evidence_b!r}",
                )
        da = scalar_plane.decide()
        db = batched_plane.decide()
        if (
            da.verdict is not db.verdict
            or da.uav_guarantees != db.uav_guarantees
            or da.capable_uavs != db.capable_uavs
            or da.takeover_uavs != db.takeover_uavs
            or da.dropped_uavs != db.dropped_uavs
        ):
            self.record(
                now, None,
                f"mission decision diverged: scalar={da!r} batched={db!r}",
            )

    def finish_planes(self, scalar_plane, batched_plane) -> None:
        """End-of-run check: full traces and response logs must match."""
        for uav_id in scalar_plane.uav_ids:
            if scalar_plane.guarantee_trace(uav_id) != (
                batched_plane.guarantee_trace(uav_id)
            ):
                self.record(
                    None, uav_id, "guarantee traces diverged over the run"
                )
            log_a = [
                (r.stamp, r.guarantee, r.previous)
                for r in scalar_plane.response_log(uav_id)
            ]
            log_b = [
                (r.stamp, r.guarantee, r.previous)
                for r in batched_plane.response_log(uav_id)
            ]
            if log_a != log_b:
                self.record(
                    None, uav_id, "EDDI response logs diverged over the run"
                )


# ----------------------------------------------------------------- reports
@dataclass
class OracleReport:
    """Verdict of one oracle-suite run, JSON-able for manifests."""

    checked: list[str]
    violations: list[Violation]
    suppressed: int
    steps: int
    horizon_s: float

    @property
    def passed(self) -> bool:
        return not self.violations

    @property
    def violated_oracles(self) -> list[str]:
        """Names of the oracles that fired, first-violation order."""
        seen: list[str] = []
        for violation in self.violations:
            if violation.oracle not in seen:
                seen.append(violation.oracle)
        return seen

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "checked": list(self.checked),
            "violations": [v.to_dict() for v in self.violations],
            "suppressed": self.suppressed,
            "steps": self.steps,
            "horizon_s": self.horizon_s,
        }


# ------------------------------------------------------------------- chaos
class _ChaosScript:
    """Scripted simulator bug from a scenario's ``"chaos"`` block.

    Applied identically to both engines (so ``engine_lockstep`` stays
    meaningful): ``teleport`` displaces the target by ``magnitude``
    metres in one step, ``soc_jump`` raises its SoC by ``magnitude``,
    ``exception`` raises from inside the step loop. ``armed_file``, when
    set, arms the bug only while that file exists — the "broken engine,
    then someone fixes it" switch, kept on disk so the scenario JSON
    (and with it every cache key and fingerprint) is identical before
    and after the fix.
    """

    def __init__(self, spec: dict) -> None:
        """``spec``: the block's values as :data:`repro.schema.SAR` checks them."""
        self.mode, self.uav, self.at = spec["mode"], spec["uav"], spec["at"]
        self.magnitude = spec["magnitude"]
        if self.magnitude is None:
            self.magnitude = 300.0 if self.mode == "teleport" else 0.25
        self.armed_file = spec["armed_file"]
        self.fired = False

    def armed(self) -> bool:
        return self.armed_file is None or Path(self.armed_file).exists()

    def maybe_fire(self, worlds: tuple[World, ...], now: float) -> None:
        if self.fired or now < self.at or not self.armed():
            return
        self.fired = True
        if self.mode == "exception":
            raise RuntimeError(
                f"chaos: injected exception at t={now} (uav {self.uav})"
            )
        for world in worlds:
            uav = world.uavs.get(self.uav)
            if uav is None:
                continue
            if self.mode == "teleport":
                e, n, u = uav.dynamics.position
                uav.dynamics.position = (e + self.magnitude, n, u)
            elif self.mode == "soc_jump":
                uav.battery.soc = min(1.0, uav.battery.soc + self.magnitude)


# ------------------------------------------------------------------ runner
def scenario_horizon_s(config: dict, horizon_s: float | None = None) -> float:
    """The simulated horizon for a scenario: argument > config > default."""
    if horizon_s is None:
        horizon_s = config.get("horizon_s")
    return float(DEFAULT_HORIZON_S if horizon_s is None else horizon_s)


def run_scenario_oracles(
    config: dict,
    horizon_s: float | None = None,
    eddi_period_s: float = DEFAULT_EDDI_PERIOD_S,
    max_violations: int = 10,
) -> OracleReport:
    """Run ``config`` under the full oracle suite; return the verdict.

    The scenario is loaded twice — scalar reference and vectorized
    engine — and stepped in lockstep to ``horizon_s`` (argument, else
    the config's ``"horizon_s"``, else :data:`DEFAULT_HORIZON_S`).
    The scalar world carries the reference assurance plane (per-UAV
    Fig. 1 EDDI stacks) and the vectorized world carries the batched
    plane (:mod:`repro.core.batch`); both cycle every ``eddi_period_s``
    simulated seconds, feeding the ``guarantee_sanity`` and
    ``assurance_lockstep`` oracles. Any exception the simulator raises
    is the ``no_unhandled_exception`` verdict, not a crash of the
    harness. Fully deterministic: same config, same report.
    """
    scalar: Scenario = load_scenario(config, engine="scalar")
    vector: Scenario = load_scenario(config, engine="vectorized")
    horizon = scenario_horizon_s(config, horizon_s)
    dt = scalar.world.dt
    steps = max(1, int(round(horizon / dt)))
    eddi_every = max(1, int(round(eddi_period_s / dt)))

    scalar_plane = build_assurance(scalar.world)
    vector_plane = build_assurance(vector.world)

    state_oracles: list[Oracle] = [
        SocMonotonicOracle(max_violations=max_violations),
        TeleportBoundOracle(max_violations=max_violations),
        LandedDriftOracle(max_violations=max_violations),
        PlannedPathClearanceOracle(max_violations=max_violations),
    ]
    lockstep = EngineLockstepOracle(max_violations=max_violations)
    guarantee = GuaranteeSanityOracle(max_violations=max_violations)
    assurance = AssuranceLockstepOracle(max_violations=max_violations)
    exception = Oracle(max_violations=max_violations)
    exception.name = "no_unhandled_exception"

    chaos_spec = SAR.load(config)["chaos"]
    chaos = None if chaos_spec is None else _ChaosScript(chaos_spec)

    completed = 0
    try:
        # Prime the per-UAV baselines at t=0 so the first step is checked.
        for oracle in state_oracles:
            oracle.observe(vector.world, 0.0)
        for _ in range(steps):
            now = scalar.step()
            vector.step()
            if chaos is not None:
                chaos.maybe_fire((scalar.world, vector.world), now)
            for oracle in state_oracles:
                oracle.observe(vector.world, now)
            lockstep.compare(scalar.world, vector.world, now)
            completed += 1
            if completed % eddi_every == 0:
                scalar_plane.step(now)
                vector_plane.step(now)
                assurance.compare(scalar_plane, vector_plane, now)
    except Exception as exc:
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        exception.record(
            scalar.world.time, None,
            f"{type(exc).__name__}: {exc} "
            f"(at {Path(frame.filename).name}:{frame.lineno})",
        )
    guarantee.check(scalar_plane, vector_plane)
    assurance.finish_planes(scalar_plane, vector_plane)

    all_oracles = [*state_oracles, lockstep, guarantee, assurance, exception]
    violations: list[Violation] = []
    for oracle in all_oracles:
        violations.extend(oracle.violations)
    return OracleReport(
        checked=[oracle.name for oracle in all_oracles],
        violations=violations,
        suppressed=sum(oracle.suppressed for oracle in all_oracles),
        steps=completed,
        horizon_s=horizon,
    )


# ---------------------------------------------------------- swarm tasking
#: Assignment outcomes the swarm protocol is allowed to book.
SWARM_OUTCOMES = frozenset(
    {"confirmed", "timeout", "follower_lost", "rehome", "horizon"}
)


def intervals_overlap(
    a: tuple[float, float | None], b: tuple[float, float | None]
) -> bool:
    """Whether two half-open ownership intervals ``[start, end)`` overlap.

    ``None`` means still open. Touching at the boundary is legal: a task
    released and re-assigned within one protocol tick closes the old
    interval at exactly the new one's start.
    """
    a_start, a_end = a
    b_start, b_end = b
    if b_start < a_start:
        a_start, a_end, b_start, b_end = b_start, b_end, a_start, a_end
    return a_end is None or b_start < a_end


class SwarmTaskingOracle(Oracle):
    """Task-ledger coherence for the leader–follower protocol."""

    name = "swarm_tasking"

    def check_ledger(self, ledger, counters: dict | None = None) -> None:
        """Check a finished (finalized) :class:`~repro.swarm.protocol.SwarmLedger`."""
        from repro.swarm.protocol import TaskState

        per_follower: dict[str, list[tuple[str, float, float | None]]] = {}
        confirms_booked = 0
        for poi_id in sorted(ledger.tasks):
            task = ledger.tasks[poi_id]
            spans = [(a.t_assign, a.t_closed) for a in task.assignments]
            for a in task.assignments:
                if a.outcome is not None and a.outcome not in SWARM_OUTCOMES:
                    self.record(
                        a.t_assign, a.follower,
                        f"{poi_id}: unknown assignment outcome {a.outcome!r}",
                    )
                per_follower.setdefault(a.follower, []).append(
                    (poi_id, a.t_assign, a.t_closed)
                )
            for prev, cur in zip(spans, spans[1:]):
                if intervals_overlap(prev, cur):
                    self.record(
                        cur[0], task.owner,
                        f"{poi_id}: overlapping assignments {prev} / {cur} "
                        "— owned by two followers at once",
                    )
            if any(
                a.t_assign < task.t_detected for a in task.assignments
            ):
                self.record(
                    task.t_detected, None,
                    f"{poi_id}: assigned before it was detected",
                )
            confirmed = [a for a in task.assignments if a.outcome == "confirmed"]
            confirms_booked += len(confirmed)
            if task.state == TaskState.SERVICED:
                if len(confirmed) != 1:
                    self.record(
                        task.t_serviced, None,
                        f"{poi_id}: serviced with {len(confirmed)} confirmed "
                        "assignments (want exactly 1)",
                    )
                if task.t_serviced is None:
                    self.record(
                        None, None, f"{poi_id}: serviced without t_serviced"
                    )
                elif task.t_serviced < task.t_detected:
                    self.record(
                        task.t_serviced, None,
                        f"{poi_id}: negative service latency "
                        f"({task.t_serviced} < {task.t_detected})",
                    )
                elif confirmed and task.t_serviced < confirmed[0].t_assign:
                    self.record(
                        task.t_serviced, confirmed[0].follower,
                        f"{poi_id}: serviced at {task.t_serviced} before its "
                        f"confirmed assignment at {confirmed[0].t_assign}",
                    )
            elif task.state == TaskState.ORPHANED:
                if confirmed:
                    self.record(
                        None, None,
                        f"{poi_id}: orphaned despite a confirmed assignment",
                    )
                if not task.orphan_reason:
                    self.record(
                        None, None, f"{poi_id}: orphaned without a reason"
                    )
            else:
                self.record(
                    None, None,
                    f"{poi_id}: detected PoI left {task.state!r} — neither "
                    "serviced nor explicitly orphaned",
                )
        for fid in sorted(per_follower):
            spans = sorted(per_follower[fid], key=lambda s: (s[1], s[0]))
            for prev, cur in zip(spans, spans[1:]):
                if intervals_overlap(prev[1:], cur[1:]):
                    self.record(
                        cur[1], fid,
                        f"follower owns {prev[0]} and {cur[0]} at once "
                        f"({prev[1:]} / {cur[1:]})",
                    )
        if counters is not None and counters.get("confirms") != confirms_booked:
            self.record(
                None, None,
                f"leaders counted {counters.get('confirms')} confirms but the "
                f"ledger books {confirms_booked}",
            )


def run_swarm_oracles(
    config: dict,
    seed: int = 0,
    max_violations: int = 10,
) -> OracleReport:
    """Run a swarm scenario config under the tasking oracle.

    The swarm analogue of :func:`run_scenario_oracles`: a config that
    does not load raises :class:`~repro.schema.ScenarioError` naming the
    key, any exception from the simulation lands in
    ``no_unhandled_exception`` instead of crashing the harness, and the
    report is fully deterministic for a given (config, seed).
    """
    from repro.swarm.sim import build_swarm

    tasking = SwarmTaskingOracle(max_violations=max_violations)
    exception = Oracle(max_violations=max_violations)
    exception.name = "no_unhandled_exception"

    sim = build_swarm(dict(config), seed=seed)
    horizon = sim.horizon_s
    steps = 0
    try:
        run = sim.run()
        steps = int(round(horizon / sim.dt))
        tasking.check_ledger(run.ledger, counters=run.metrics["leader"])
    except Exception as exc:
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        exception.record(
            None, None,
            f"{type(exc).__name__}: {exc} "
            f"(at {Path(frame.filename).name}:{frame.lineno})",
        )

    violations = [*tasking.violations, *exception.violations]
    return OracleReport(
        checked=[tasking.name, exception.name],
        violations=violations,
        suppressed=tasking.suppressed + exception.suppressed,
        steps=steps,
        horizon_s=horizon,
    )
