"""Property-based invariants of the vectorized fleet engine.

Randomized fleets (1–64 UAVs), randomized waypoint plans, and randomized
fault schedules; every trial checks physical invariants the batched
NumPy kinematics must never violate, whatever the inputs:

- battery state of charge is monotonically non-increasing (there is no
  charger in the simulation; faults only ever drop it),
- no UAV teleports: per-step displacement is bounded by the speed limit
  (``v_max * dt``), and
- a landed UAV stays exactly where it touched down.

The scalar reference engine satisfies these by construction one UAV at a
time; the point here is that masking, batched clamps, and in-step mode
transitions in :mod:`repro.uav.fleet` preserve them for arbitrary fleet
shapes — including the single-UAV and power-of-two sizes that stress the
chunked noise buffers.

The predicates themselves live in :mod:`repro.harness.oracles`, shared
with the fuzzing campaign so the tests and the fuzzer enforce one
implementation of each invariant.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.experiments.common import build_three_uav_world
from repro.harness.oracles import (
    landed_step_ok,
    soc_step_ok,
    teleport_bound_m,
    teleport_step_ok,
)
from repro.uav.faults import (
    FaultSchedule,
    battery_collapse,
    gps_denial,
    gps_spoof,
    imu_failure,
    motor_failure,
)
from repro.uav.uav import FlightMode
from repro.uav.world import World

N_TRIALS = 50
STEPS_PER_TRIAL = 80

FAULT_FACTORIES = (
    lambda uav_id, at, rng: battery_collapse(
        uav_id, at, soc_drop_to=float(rng.uniform(0.1, 0.6))
    ),
    lambda uav_id, at, rng: gps_denial(
        uav_id, at, duration_s=float(rng.uniform(5.0, 30.0))
    ),
    lambda uav_id, at, rng: gps_spoof(
        uav_id, at, offset_m=tuple(rng.uniform(-50.0, 50.0, size=3))
    ),
    lambda uav_id, at, rng: imu_failure(uav_id, at),
    lambda uav_id, at, rng: motor_failure(uav_id, at),
)


def _random_trial(trial: int):
    """Build one randomized fleet + fault schedule from the trial index."""
    rng = np.random.default_rng(1000 + trial)
    n_uavs = int(rng.integers(1, 65))
    scenario = build_three_uav_world(
        seed=trial, n_persons=0, n_uavs=n_uavs, engine="vectorized"
    )
    world = scenario.world
    for uav in world.uavs.values():
        n_wp = int(rng.integers(1, 5))
        waypoints = [
            (
                float(rng.uniform(0.0, world.area_size_m[0])),
                float(rng.uniform(0.0, world.area_size_m[1])),
                float(rng.uniform(5.0, 40.0)),
            )
            for _ in range(n_wp)
        ]
        uav.start_mission(waypoints)

    faults = FaultSchedule()
    for uav_id in rng.choice(
        list(world.uavs), size=min(n_uavs, int(rng.integers(1, 6))), replace=False
    ):
        factory = FAULT_FACTORIES[int(rng.integers(len(FAULT_FACTORIES)))]
        faults.add(factory(str(uav_id), float(rng.uniform(1.0, 30.0)), rng))
    return world, faults


@pytest.mark.parametrize("trial", range(N_TRIALS))
def test_random_fleet_invariants(trial):
    world, faults = _random_trial(trial)
    prev_soc = {u: uav.battery.soc for u, uav in world.uavs.items()}
    prev_pos = {u: uav.dynamics.position for u, uav in world.uavs.items()}
    landed_at: dict[str, tuple[float, float, float]] = {}

    for _ in range(STEPS_PER_TRIAL):
        now = world.step()
        faults.step(now, world.uavs)
        for uav_id, uav in world.uavs.items():
            soc = uav.battery.soc
            assert soc_step_ok(prev_soc[uav_id], soc), (
                f"trial {trial} {uav_id} t={now}: SoC rose "
                f"{prev_soc[uav_id]} -> {soc}"
            )
            prev_soc[uav_id] = soc

            pos = uav.dynamics.position
            assert teleport_step_ok(
                prev_pos[uav_id], pos, uav.dynamics.max_speed_mps, world.dt
            ), (
                f"trial {trial} {uav_id} t={now}: teleported "
                f"{math.dist(pos, prev_pos[uav_id]):.6f} m in one step "
                f"(bound {teleport_bound_m(uav.dynamics.max_speed_mps, world.dt):.6f} m)"
            )
            prev_pos[uav_id] = pos

            if uav_id in landed_at:
                assert landed_step_ok(landed_at[uav_id], pos), (
                    f"trial {trial} {uav_id} t={now}: drifted after landing"
                )
            elif uav.mode is FlightMode.LANDED:
                landed_at[uav_id] = pos


@pytest.mark.parametrize("trial", [2, 17, 33])
def test_random_fleet_matches_scalar_reference(trial):
    """Spot-check: randomized trials are also engine-equivalent, bit for bit."""
    world_v, faults_v = _random_trial(trial)

    # Rebuild the identical trial on the scalar engine: same trial seeds
    # drive the same construction, only the engine differs.
    rng = np.random.default_rng(1000 + trial)
    n_uavs = int(rng.integers(1, 65))
    scenario = build_three_uav_world(
        seed=trial, n_persons=0, n_uavs=n_uavs, engine="scalar"
    )
    world_s = scenario.world
    for uav in world_s.uavs.values():
        n_wp = int(rng.integers(1, 5))
        uav.start_mission(
            [
                (
                    float(rng.uniform(0.0, world_s.area_size_m[0])),
                    float(rng.uniform(0.0, world_s.area_size_m[1])),
                    float(rng.uniform(5.0, 40.0)),
                )
                for _ in range(n_wp)
            ]
        )
    faults_s = FaultSchedule()
    for uav_id in rng.choice(
        list(world_s.uavs), size=min(n_uavs, int(rng.integers(1, 6))), replace=False
    ):
        factory = FAULT_FACTORIES[int(rng.integers(len(FAULT_FACTORIES)))]
        faults_s.add(factory(str(uav_id), float(rng.uniform(1.0, 30.0)), rng))

    for _ in range(STEPS_PER_TRIAL):
        now_v = world_v.step()
        faults_v.step(now_v, world_v.uavs)
        now_s = world_s.step()
        faults_s.step(now_s, world_s.uavs)
        for uav_id, uav in world_s.uavs.items():
            peer = world_v.uavs[uav_id]
            assert uav.dynamics.position == peer.dynamics.position
            assert uav.battery.soc == peer.battery.soc
            assert uav.battery.temp_c == peer.battery.temp_c
            assert uav.mode is peer.mode


class TestZeroUavWorld:
    """Regression: a UAV-less world steps cleanly on both engines.

    Campaign smoke grids legitimately build empty worlds; ``World.step``
    short-circuits to a pure clock advance instead of running (and
    instrumenting) a fleet step over nothing.
    """

    @pytest.mark.parametrize("engine", ["scalar", "vectorized"])
    def test_step_advances_clocks_only(self, engine):
        world = World(engine=engine)
        assert world.uavs == {}
        for expected_steps in range(1, 6):
            now = world.step()
            assert now == pytest.approx(expected_steps * world.dt)
            assert world.bus.clock == now
        assert len(world.bus.traffic) == 0

    def test_stepping_to_a_horizon_terminates(self):
        world = World(engine="vectorized")
        while world.time < 10.0:
            world.step()
        assert world.time == pytest.approx(10.0)

    @pytest.mark.parametrize("engine", ["scalar", "vectorized"])
    def test_uav_added_after_empty_steps_flies(self, engine):
        # The short-circuit must not wedge a world that gains UAVs later.
        from repro.experiments.common import uav_rng_streams
        from repro.uav.battery import BatterySpec
        from repro.uav.uav import Uav, UavSpec

        world = World(engine=engine)
        world.step()
        (rng,) = uav_rng_streams(seed=5, n_uavs=1)
        uav = Uav(
            spec=UavSpec(
                uav_id="late", base_position=(10.0, 10.0, 0.0),
                battery_spec=BatterySpec(),
            ),
            frame=world.frame,
            bus=world.bus,
            rng=rng,
        )
        world.add_uav(uav)
        uav.start_mission([(50.0, 50.0, 20.0)])
        for _ in range(20):
            world.step()
        assert uav.dynamics.position != (10.0, 10.0, 0.0)
