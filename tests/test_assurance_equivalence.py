"""Differential suite: the batched assurance plane vs the scalar reference.

The batched plane (:mod:`repro.core.batch`) promises *bit-identical*
safety semantics to the scalar EDDI/ConSert stack — not "close
enough", identical: guarantee traces, ConSert gate outputs, SafeDrones
reliability numbers, and MissionDecider verdicts must match to the last
bit, because every one of them feeds a discrete branch (demotion, task
redistribution) where a single ULP flips the outcome.

These tests run the same scenario through both engines side by side —
scalar plane on a scalar world, batched plane on a vectorized world,
sharing only the seeds — and demand exact equality (``tol=0.0``) at
every assurance cycle, across every shipped scenario and 50 seeded
random fleets with adversarial mid-run mutations.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.batch import (
    BatchAssurancePlane,
    ScalarAssurancePlane,
    build_assurance,
)
from repro.experiments.common import build_three_uav_world
from repro.scenario import load_scenario

SCENARIO_DIR = Path(__file__).parent.parent / "scenarios"
SCENARIOS = sorted(SCENARIO_DIR.glob("*.json"))

#: The issue's contract: exact equality, asserted directly (no epsilon).
TOL = 0.0

#: Long enough to cross every shipped scenario's fault/attack window
#: (latest onset is the 250 s battery collapse in fig5_battery_fault).
T_END = 320.0


def _assert_assessments_equal(a, b, where: str) -> None:
    if a is None or b is None:
        assert a is None and b is None, f"{where}: one assessment missing"
        return
    assert a.stamp == b.stamp, where
    for key in (
        "failure_probability",
        "battery_pof",
        "propulsion_pof",
        "processor_pof",
    ):
        va, vb = getattr(a, key), getattr(b, key)
        assert abs(va - vb) <= TOL and va == vb, f"{where}: {key} {va} != {vb}"
    assert a.level is b.level, f"{where}: level {a.level} != {b.level}"
    assert a.battery_fault_detected == b.battery_fault_detected, where
    assert a.abort_recommended == b.abort_recommended, where


def _assert_planes_agree(scalar, batched, where: str) -> None:
    """Full cross-section: evidence, gates, assessments, traces."""
    assert scalar.uav_ids == batched.uav_ids, where
    for uav_id in scalar.uav_ids:
        w = f"{where} {uav_id}"
        assert scalar.evidence(uav_id) == batched.evidence(uav_id), w
        assert scalar.consert_offers(uav_id) == batched.consert_offers(uav_id), w
        assert (
            scalar.current_guarantee(uav_id)
            is batched.current_guarantee(uav_id)
        ), w
        _assert_assessments_equal(
            scalar.assessment(uav_id), batched.assessment(uav_id), w
        )


def _assert_decisions_equal(a, b, where: str) -> None:
    assert a.verdict is b.verdict, f"{where}: {a.verdict} != {b.verdict}"
    assert a.uav_guarantees == b.uav_guarantees, where
    assert a.capable_uavs == b.capable_uavs, where
    assert a.takeover_uavs == b.takeover_uavs, where
    assert a.dropped_uavs == b.dropped_uavs, where


def _run_lockstep(scalar_world, vector_world, steps: int, *, mutate=None):
    """Step both worlds + planes in lockstep, asserting per-cycle equality."""
    scalar_plane = build_assurance(scalar_world)
    batched_plane = build_assurance(vector_world)
    assert isinstance(scalar_plane, ScalarAssurancePlane)
    assert isinstance(batched_plane, BatchAssurancePlane)
    for step in range(steps):
        if mutate is not None:
            mutate(step, scalar_world, scalar_plane)
            mutate(step, vector_world, batched_plane)
        ta = scalar_world.step()
        tb = vector_world.step()
        assert ta == tb
        ga = scalar_plane.step(ta)
        gb = batched_plane.step(tb)
        assert ga == gb, f"t={ta}: guarantees {ga} != {gb}"
        _assert_planes_agree(scalar_plane, batched_plane, f"t={ta}")
        da = scalar_plane.decide()
        db = batched_plane.decide()
        _assert_decisions_equal(da, db, f"t={ta}")
    for uav_id in scalar_plane.uav_ids:
        assert scalar_plane.guarantee_trace(uav_id) == batched_plane.guarantee_trace(
            uav_id
        ), uav_id
        la = [
            (r.stamp, r.guarantee, r.previous)
            for r in scalar_plane.response_log(uav_id)
        ]
        lb = [
            (r.stamp, r.guarantee, r.previous)
            for r in batched_plane.response_log(uav_id)
        ]
        assert la == lb, uav_id
    return scalar_plane, batched_plane


@pytest.mark.parametrize(
    "scenario_path", SCENARIOS, ids=[p.stem for p in SCENARIOS]
)
def test_scenarios_bit_identical_assurance(scenario_path):
    """Every shipped scenario, assurance cycle compared at every step.

    Runs well past every fault onset (battery collapse, GPS denial and
    spoofing, camera degradation, wind) so the spoof detector, the
    SoC-collapse fault path, and GPS-quality demotions all fire in both
    planes.
    """
    text = scenario_path.read_text()
    scalar = load_scenario(json.loads(text), engine="scalar")
    vector = load_scenario(json.loads(text), engine="vectorized")
    steps = int(round(T_END / scalar.world.dt))
    _run_lockstep(scalar.world, vector.world, steps)


def _random_mutator(seed: int):
    """A deterministic adversarial schedule, applied identically per engine.

    Draws are taken from a private generator (not the world's), so the
    simulation streams are untouched; each mutation targets the same UAV
    at the same step in both engines.
    """
    rng = np.random.default_rng(seed)
    script: dict[int, list[tuple]] = {}
    for _ in range(12):
        at = int(rng.integers(0, 40))
        kind = rng.choice(
            ["deny", "spoof", "imu", "camera", "motor", "drain", "heal"]
        )
        target = int(rng.integers(0, 1 << 30))
        magnitude = float(rng.random())
        script.setdefault(at, []).append((str(kind), target, magnitude))

    def mutate(step: int, world, plane) -> None:
        uav_ids = list(world.uavs)
        if not uav_ids:
            return
        for kind, target, magnitude in script.get(step, ()):
            uav = world.uavs[uav_ids[target % len(uav_ids)]]
            if kind == "deny":
                uav.sensors.gps.denied = True
            elif kind == "spoof":
                offset = (40.0 * magnitude, -25.0 * magnitude, 0.0)
                uav.sensors.gps.spoof_offset_m = offset
            elif kind == "imu":
                uav.sensors.imu.healthy = False
            elif kind == "camera":
                uav.sensors.camera.health = magnitude * 0.6
            elif kind == "motor":
                uav.motors_failed = 1 + int(magnitude * 2.0)
            elif kind == "drain":
                uav.battery.soc = uav.battery.soc * (0.3 + 0.5 * magnitude)
            elif kind == "heal":
                uav.sensors.gps.denied = False
                uav.sensors.gps.spoof_offset_m = (0.0, 0.0, 0.0)
                uav.sensors.imu.healthy = True

    return mutate


@pytest.mark.parametrize("case", range(50))
def test_random_fleets_lockstep(case):
    """50 seeded random fleets (1–64 UAVs) under adversarial mutations.

    Each case draws a fleet size and a mutation script (GPS denial,
    spoofing, IMU loss, camera degradation, motor failures, battery
    drains, mid-run healing) from its seed and demands exact agreement on
    every guarantee trace, gate output, reliability number, and mission
    verdict.
    """
    rng = np.random.default_rng(1000 + case)
    n_uavs = int(rng.integers(1, 65))
    seed = int(rng.integers(0, 1 << 31))
    scalar = build_three_uav_world(
        seed=seed, n_uavs=n_uavs, n_persons=0, engine="scalar"
    ).world
    vector = build_three_uav_world(
        seed=seed, n_uavs=n_uavs, n_persons=0, engine="vectorized"
    ).world
    steps = 12 if n_uavs > 16 else 40
    _run_lockstep(scalar, vector, steps, mutate=_random_mutator(seed))


def test_zero_uav_planes_agree():
    """Empty fleet: step is a no-op dict, decide raises like the scalar."""
    from repro.geo import EnuFrame, GeoPoint
    from repro.uav.world import World

    frame = EnuFrame(origin=GeoPoint(35.0, 33.0, 0.0))
    scalar = World(frame=frame, rng=np.random.default_rng(0), engine="scalar")
    vector = World(
        frame=frame, rng=np.random.default_rng(0), engine="vectorized"
    )
    scalar_plane = build_assurance(scalar)
    batched_plane = build_assurance(vector)
    assert scalar_plane.step(0.5) == {}
    assert batched_plane.step(0.5) == {}
    with pytest.raises(RuntimeError, match="no UAVs registered"):
        scalar_plane.decide()
    with pytest.raises(RuntimeError, match="no UAVs registered"):
        batched_plane.decide()


def test_single_uav_has_no_collaborators():
    """n=1: nearby_uavs_available stays False in both planes, forever."""
    scalar = build_three_uav_world(seed=2, n_uavs=1, n_persons=0,
                                   engine="scalar").world
    vector = build_three_uav_world(seed=2, n_uavs=1, n_persons=0,
                                   engine="vectorized").world
    scalar_plane, batched_plane = _run_lockstep(scalar, vector, 30)
    (uav_id,) = scalar_plane.uav_ids
    assert scalar_plane.evidence(uav_id)["nearby_uavs_available"] is False
    assert batched_plane.evidence(uav_id)["nearby_uavs_available"] is False


def test_engine_switch_vocabulary_matches_world():
    """build_assurance follows the world's engine, in World's vocabulary."""
    from repro.uav.world import World

    with pytest.raises(ValueError, match="unknown engine"):
        World(engine="warp")
    world = build_three_uav_world(seed=0, n_persons=0, engine="scalar").world
    assert build_assurance(world).engine == "scalar"
    vec = build_three_uav_world(seed=0, n_persons=0, engine="vectorized").world
    assert build_assurance(vec).engine == "vectorized"
    # The batched plane refuses a scalar world: it needs fleet channels.
    with pytest.raises(ValueError, match="vectorized assurance"):
        BatchAssurancePlane(world)


def test_batched_plane_rejects_fleet_growth():
    """Adopting UAVs after the plane exists is an error, not silent skew."""
    from repro.uav.uav import Uav, UavSpec

    scenario = build_three_uav_world(seed=4, n_persons=0, engine="vectorized")
    world = scenario.world
    plane = build_assurance(world)
    world.add_uav(
        Uav(
            spec=UavSpec(uav_id="late", base_position=(0.0, 0.0, 0.0)),
            frame=world.frame,
            bus=world.bus,
            rng=np.random.default_rng(123),
        )
    )
    world.step()
    with pytest.raises(RuntimeError, match="fleet grew"):
        plane.step(world.time)


def test_guarantee_callbacks_fire_identically():
    """on_guarantee responses fire with identical payloads in both planes."""
    text = (SCENARIO_DIR / "fig5_battery_fault.json").read_text()
    scalar = load_scenario(json.loads(text), engine="scalar")
    vector = load_scenario(json.loads(text), engine="vectorized")
    scalar_plane = build_assurance(scalar.world)
    batched_plane = build_assurance(vector.world)
    fired: dict[str, list] = {"scalar": [], "batched": []}
    from repro.core.uav_network import UavGuarantee

    for label, plane in (("scalar", scalar_plane), ("batched", batched_plane)):
        for uav_id in plane.uav_ids:
            for guarantee in UavGuarantee:
                plane.on_guarantee(
                    uav_id,
                    guarantee,
                    lambda r, _label=label, _u=uav_id: fired[_label].append(
                        (_u, r.stamp, r.guarantee, r.previous)
                    ),
                )
    steps = int(round(T_END / scalar.world.dt))
    for _ in range(steps):
        ta = scalar.step()
        tb = vector.step()
        scalar_plane.step(ta)
        batched_plane.step(tb)
    assert fired["scalar"] == fired["batched"]
    assert fired["scalar"]  # the scenario actually causes transitions


def test_response_obs_trail_identical():
    """With obs on, both planes record each transition alike: the same
    ``guarantee_transition`` events and ``eddi.respond`` spans."""
    from repro import obs
    from repro.core.uav_network import UavGuarantee

    config = json.loads((SCENARIO_DIR / "fig5_battery_fault.json").read_text())
    # Pull the collapse forward so a fault-driven demotion lands early.
    config["faults"] = [dict(config["faults"][0], at=10.0, soc_drop_to=0.08)]
    trails = {}
    for engine in ("scalar", "vectorized"):
        scenario = load_scenario(json.loads(json.dumps(config)), engine=engine)
        plane = build_assurance(scenario.world)
        assert plane.engine == engine
        for uav_id in plane.uav_ids:
            for guarantee in UavGuarantee:
                plane.on_guarantee(uav_id, guarantee, lambda response: None)
        with obs.isolated(enabled=True) as session:
            while scenario.world.time < 40.0:
                plane.step(scenario.step())
            events = [
                (e.severity, e.subsystem, e.sim_time, e.payload)
                for e in session.events.events
                if e.name == "guarantee_transition"
            ]
            spans = [
                (s.sim_time, s.labels)
                for s in session.tracer.spans
                if s.name == "eddi.respond"
            ]
        trails[engine] = (events, spans)
    assert trails["scalar"] == trails["vectorized"]
    events, spans = trails["scalar"]
    assert len(spans) == len(events)
    assert any(payload["previous"] is not None for *_, payload in events)


def test_scenarios_exercise_assurance_relevant_faults():
    """Meta-check: the sweep crosses demotion-triggering fault types."""
    covered = set()
    for path in SCENARIOS:
        config = json.loads(path.read_text())
        for fault in config.get("faults", ()):
            if float(fault["at"]) < T_END:
                covered.add(fault["type"])
    assert {"battery_collapse", "gps_denial", "gps_spoof"} <= covered, (
        f"scenario sweep only covers {sorted(covered)}"
    )


def test_assurance_scale_point_engine_invariant(monkeypatch):
    """The fleet-scale assurance sample reports identical mission and
    assurance facts on both engines (only wall-clock fields may differ)."""
    import functools

    import repro.experiments.fleet_scale as fleet_scale

    deterministic = (
        "seed", "n_uavs", "coverage_fraction", "duration_s", "sim_time_s",
        "persons_found", "persons_total", "assurance_cycles",
        "final_verdict", "guarantee_transitions",
    )
    runs = {}
    for engine in ("scalar", "vectorized"):
        monkeypatch.setattr(
            fleet_scale, "build_three_uav_world",
            functools.partial(build_three_uav_world, engine=engine),
        )
        runs[engine] = fleet_scale.run_assurance_scale_point(
            3, seed=21, max_time_s=20.0
        )
    scalar, batched = runs["scalar"], runs["vectorized"]
    assert scalar["assurance_engine"] == "scalar"
    assert batched["assurance_engine"] == "vectorized"
    for key in deterministic:
        assert scalar[key] == batched[key], key
    assert batched["assurance_cycles"] > 0


def test_assurance_smoke_grid_cycles_the_plane():
    """The CI grid cycles the scalar plane at 3 UAVs and the batched plane
    at 50, as the fleet-size engine rule selects."""
    from repro.experiments.fleet_scale import FLEET_SCALE_CAMPAIGN
    from repro.harness.campaign import run_campaign

    campaign = run_campaign(FLEET_SCALE_CAMPAIGN, grid="assurance-smoke")
    engines = {r["n_uavs"]: r["assurance_engine"] for r in campaign.results}
    assert engines == {3: "scalar", 50: "vectorized"}
    assert all(r["assurance_cycles"] > 0 for r in campaign.results)
