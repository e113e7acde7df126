"""Batched assurance plane benchmark: cycle scaling.

The acceptance bar from the vectorized-assurance work: one full
assurance cycle at 50 UAVs (every UAV's EDDI — SafeDrones Markov update,
spoof detector, SafeML, ConSert evaluation — plus the mission
decider) must run at least 5x faster on the batched plane
(:mod:`repro.core.batch`) than on the scalar reference. The world step is
excluded from the timed window (the fleet physics bench owns that
number); only the assurance ops are measured, with the simulation
advanced untimed between cycles so the monitors see real trajectories.

Both planes produce bit-identical outputs (see
``tests/test_assurance_equivalence.py``), so the comparison is pure
cost, not accuracy trade-off. GC is disabled around the timed loops as
pytest-benchmark itself does.
"""

from __future__ import annotations

import gc
import time

from repro.core.batch import build_assurance
from repro.experiments.common import build_three_uav_world

from conftest import print_table

FLEET_SIZES = (3, 10, 50)
CYCLES = 20
WARMUP_CYCLES = 5
REPEATS = 3
TARGET_CYCLE_SPEEDUP_AT_50 = 5.0


def _cycle_cost_ms(n_uavs: int, engine: str) -> float:
    """Best-of-REPEATS mean assurance-cycle cost in milliseconds."""
    best = float("inf")
    for _ in range(REPEATS):
        scenario = build_three_uav_world(
            seed=11, n_persons=0, n_uavs=n_uavs, engine=engine
        )
        world = scenario.world
        for i, uav in enumerate(world.uavs.values()):
            # Keep the fleet cruising so monitors see moving state.
            uav.start_mission(
                [(5000.0 + 10.0 * i, 4000.0, 30.0),
                 (5000.0 + 10.0 * i, 8000.0, 30.0)]
            )
        plane = build_assurance(world)
        for _ in range(WARMUP_CYCLES):
            world.step()
            plane.step(world.time)
            plane.decide()
        gc.disable()
        total = 0.0
        try:
            for _ in range(CYCLES):
                world.step()
                start = time.perf_counter()
                plane.step(world.time)
                plane.decide()
                total += time.perf_counter() - start
        finally:
            gc.enable()
        best = min(best, total / CYCLES)
    return best * 1e3


def test_bench_assurance_cycle_scaling(benchmark):
    rows = []
    results = {}
    for n_uavs in FLEET_SIZES:
        scalar_ms = _cycle_cost_ms(n_uavs, "scalar")
        batched_ms = _cycle_cost_ms(n_uavs, "vectorized")
        results[n_uavs] = (scalar_ms, batched_ms)
        rows.append(
            [
                n_uavs,
                f"{scalar_ms:.3f}",
                f"{batched_ms:.3f}",
                f"{scalar_ms / batched_ms:.1f}x",
            ]
        )
    print_table(
        "Assurance cycle: scalar vs batched plane (ms per cycle)",
        ["uavs", "scalar", "batched", "speedup"],
        rows,
    )

    # Timed artifact for the benchmark JSON: the 50-UAV batched cycle.
    scenario = build_three_uav_world(
        seed=11, n_persons=0, n_uavs=50, engine="vectorized"
    )
    world = scenario.world
    for i, uav in enumerate(world.uavs.values()):
        uav.start_mission([(5000.0 + 10.0 * i, 4000.0, 30.0)])
    plane = build_assurance(world)
    for _ in range(WARMUP_CYCLES):
        world.step()
        plane.step(world.time)
        plane.decide()
    benchmark.pedantic(
        lambda: (plane.step(world.time), plane.decide()),
        rounds=1,
        iterations=CYCLES,
    )

    scalar_ms, batched_ms = results[50]
    speedup = scalar_ms / batched_ms
    benchmark.extra_info["cycle_ms_scalar_50"] = round(scalar_ms, 3)
    benchmark.extra_info["cycle_ms_batched_50"] = round(batched_ms, 3)
    benchmark.extra_info["assurance_speedup_50"] = round(speedup, 2)
    assert speedup >= TARGET_CYCLE_SPEEDUP_AT_50, (
        f"50-UAV assurance cycle speedup {speedup:.2f}x is below the "
        f"{TARGET_CYCLE_SPEEDUP_AT_50}x acceptance bar "
        f"(scalar {scalar_ms:.3f} ms vs batched {batched_ms:.3f} ms)"
    )

