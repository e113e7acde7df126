"""Differential suite: the vectorized fleet engine vs the scalar reference.

The vectorized engine (:mod:`repro.uav.fleet`) promises *bit-identical*
trajectories to the scalar per-UAV step — not "close enough", identical.
These tests run the same scenario through both engines side by side and
compare per-step state: positions, believed positions, battery SoC and
temperature, flight modes, and SAR detection events.

The acceptance contract is a 1e-9 tolerance on continuous state; the
engines actually deliver exact equality, which the scenario sweep
asserts (``tol=0.0``) so any future divergence — even one ULP — fails
loudly rather than eroding toward the tolerance.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from repro.experiments.common import build_three_uav_world
from repro.sar.mission import SarMission
from repro.scenario import load_scenario

SCENARIO_DIR = Path(__file__).parent.parent / "scenarios"
SCENARIOS = sorted(SCENARIO_DIR.glob("*.json"))

#: The contract from the issue: continuous state within 1e-9.
TOL = 1e-9

#: Long enough to cross every shipped scenario's fault/attack window
#: (latest onset is the 250 s battery collapse in fig5_battery_fault).
T_END = 320.0


def _fleet_state(world) -> dict:
    """One comparable snapshot of every UAV's continuous + discrete state."""
    state = {}
    for uav_id, uav in world.uavs.items():
        believed = (
            tuple(uav.believed_trajectory[-1])
            if uav.believed_trajectory
            else None
        )
        state[uav_id] = {
            "position": tuple(uav.dynamics.position),
            "velocity": tuple(uav.dynamics.velocity),
            "believed": believed,
            "soc": uav.battery.soc,
            "temp_c": uav.battery.temp_c,
            "mode": uav.mode,
        }
    return state


def _assert_states_close(a: dict, b: dict, tol: float, where: str) -> None:
    assert set(a) == set(b), f"{where}: fleet membership differs"
    for uav_id in a:
        sa, sb = a[uav_id], b[uav_id]
        assert sa["mode"] is sb["mode"], (
            f"{where} {uav_id}: mode {sa['mode']} != {sb['mode']}"
        )
        for key in ("position", "velocity", "believed"):
            va, vb = sa[key], sb[key]
            if va is None or vb is None:
                assert va == vb, f"{where} {uav_id}: {key} {va} != {vb}"
                continue
            for ca, cb in zip(va, vb):
                assert abs(ca - cb) <= tol, (
                    f"{where} {uav_id}: {key} {va} != {vb}"
                )
        for key in ("soc", "temp_c"):
            assert abs(sa[key] - sb[key]) <= tol, (
                f"{where} {uav_id}: {key} {sa[key]} != {sb[key]}"
            )


@pytest.mark.parametrize(
    "scenario_path", SCENARIOS, ids=[p.stem for p in SCENARIOS]
)
def test_scenarios_bit_identical_across_engines(scenario_path):
    """Every shipped scenario, stepped in lockstep through both engines.

    Runs well past every fault onset (battery collapse, GPS denial and
    spoofing, camera degradation, wind) and demands exact equality at
    every step — the engines share no state, only the same seeds.
    """
    text = scenario_path.read_text()
    scalar = load_scenario(json.loads(text), engine="scalar")
    vector = load_scenario(json.loads(text), engine="vectorized")
    assert scalar.world.engine == "scalar"
    assert vector.world.engine == "vectorized"

    steps = int(round(T_END / scalar.world.dt))
    for step in range(steps):
        ta = scalar.step()
        tb = vector.step()
        assert ta == tb
        _assert_states_close(
            _fleet_state(scalar.world),
            _fleet_state(vector.world),
            tol=0.0,
            where=f"{scenario_path.stem} t={ta}",
        )


def test_scenarios_exercise_mid_run_faults():
    """Meta-check: the sweep above actually crosses fault activations."""
    covered = set()
    for path in SCENARIOS:
        config = json.loads(path.read_text())
        for fault in config.get("faults", ()):
            if float(fault["at"]) < T_END:
                covered.add(fault["type"])
    assert {"battery_collapse", "gps_denial", "gps_spoof"} <= covered, (
        f"scenario sweep only covers {sorted(covered)}"
    )


def test_windy_scenario_has_environment_drift():
    """Meta-check: the sweep exercises the wind-drift path in both engines."""
    configs = [json.loads(p.read_text()) for p in SCENARIOS]
    assert any("environment" in c for c in configs)


@pytest.mark.parametrize("n_uavs", [1, 10])
def test_sar_mission_detections_identical(n_uavs):
    """Full coverage missions agree on every detection event.

    Detection draws come from the world generator, which neither engine
    touches during stepping, so who found whom — and exactly when — must
    match to the bit.
    """
    runs = {}
    for engine in ("scalar", "vectorized"):
        scenario = build_three_uav_world(
            seed=21, n_persons=8, n_uavs=n_uavs, engine=engine
        )
        mission = SarMission(world=scenario.world)
        mission.assign_paths()
        metrics = mission.run(max_time_s=500.0)
        runs[engine] = (
            [
                (p.person_id, p.detected_by, p.detected_at)
                for p in scenario.world.persons
                if p.detected
            ],
            metrics.coverage_fraction,
            metrics.duration_s,
            _fleet_state(scenario.world),
        )
    scalar_run, vector_run = runs["scalar"], runs["vectorized"]
    assert scalar_run[0] == vector_run[0]  # detection events, bit for bit
    assert scalar_run[1] == vector_run[1]
    assert scalar_run[2] == vector_run[2]
    _assert_states_close(scalar_run[3], vector_run[3], tol=0.0, where="final")


def test_telemetry_streams_identical():
    """Both engines put the same telemetry on the bus, message for message.

    The vectorized engine batches construction and publishing
    (``RosBus.publish_many``); subscribers and the traffic log must not
    be able to tell. Compares topic, sender, seq, stamp, and the full
    fix/velocity payload of every recorded message.
    """

    def run(engine: str):
        scenario = build_three_uav_world(
            seed=7, n_persons=0, n_uavs=3, engine=engine
        )
        world = scenario.world
        for uav in world.uavs.values():
            uav.start_mission([(100.0, 80.0, 20.0), (200.0, 120.0, 20.0)])
        world.uavs["uav2"].sensors.gps.denied = True  # invalid-fix path
        for _ in range(80):
            world.step()
        return [
            (
                m.topic,
                m.sender,
                m.seq,
                m.stamp,
                m.data.position if hasattr(m.data, "position") else None,
                m.data.imu_velocity if hasattr(m.data, "imu_velocity") else None,
                (
                    (m.data.fix.valid, m.data.fix.num_satellites, m.data.fix.hdop,
                     m.data.fix.point.lat, m.data.fix.point.lon, m.data.fix.point.alt)
                    if hasattr(m.data, "fix")
                    else None
                ),
            )
            for m in world.bus.traffic
        ]

    assert run("scalar") == run("vectorized")


def test_engine_flag_round_trips_through_scenario_config():
    """The loader picks the engine from the fleet size; the override wins."""
    config = {"seed": 1, "uavs": [{"id": "uav1", "base": [0, 0, 0]}]}
    assert load_scenario(config).world.engine == "scalar"
    assert (
        load_scenario(config, engine="vectorized").world.engine == "vectorized"
    )


def test_mid_flight_displacement_agrees_under_wind():
    """Airborne wind drift (environment set) is applied identically."""
    text = (SCENARIO_DIR / "windy_night_sar.json").read_text()
    scalar = load_scenario(json.loads(text), engine="scalar")
    vector = load_scenario(json.loads(text), engine="vectorized")
    for uav in scalar.world.uavs.values():
        uav.start_mission([(150.0, 150.0, 25.0)])
    for uav in vector.world.uavs.values():
        uav.start_mission([(150.0, 150.0, 25.0)])
    moved = 0.0
    for _ in range(200):
        scalar.step()
        vector.step()
        for uav_id, uav in scalar.world.uavs.items():
            peer = vector.world.uavs[uav_id]
            assert uav.dynamics.position == peer.dynamics.position
            moved = max(
                moved, math.dist(uav.dynamics.position, uav.spec.base_position)
            )
    assert moved > 10.0  # the fleet actually flew somewhere
