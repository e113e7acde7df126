"""Bench: runtime cost of the full assurance loop.

The paper stresses that "UAVs are highly constrained devices with limited
battery capacity, requiring the use of lightweight technologies" (Sec. I).
This bench measures the onboard cost of one complete assurance cycle —
world step + full monitor stack (SafeDrones Markov update, spoof
detector, ConSert evaluation) for a three-UAV fleet plus
the mission decider — the number that decides whether the stack fits a
companion computer's budget."""

from conftest import print_table

from repro.core.adapters import build_fleet_eddis
from repro.core.decider import MissionDecider
from repro.experiments.common import build_three_uav_world


def make_running_fleet():
    scenario = build_three_uav_world(seed=4, n_persons=0)
    world = scenario.world
    fleet = build_fleet_eddis(world)
    decider = MissionDecider()
    for eddi, stack in fleet.values():
        decider.add_uav(stack.network)
    for uav in world.uavs.values():
        uav.start_mission([(200.0, 250.0, 20.0), (100.0, 20.0, 20.0)] * 5)
    # Warm up the FULL measured cycle, decider included: decide() runs
    # every UAV's ConSert network, whose flat program is built on first
    # use, so a warm-up that skips it would time that build inside the
    # measured window.
    for _ in range(10):
        world.step()
        for eddi, _ in fleet.values():
            eddi.step(world.time)
        decider.decide()
    return world, fleet, decider


def test_full_assurance_cycle_cost(benchmark):
    world, fleet, decider = make_running_fleet()

    def cycle():
        world.step()
        for eddi, _ in fleet.values():
            eddi.step(world.time)
        return decider.decide()

    decision = benchmark(cycle)
    # The simulated step (2 Hz assurance rate) must be far faster than
    # real time even on one Python core.
    mean_s = benchmark.stats.stats.mean
    print(
        f"\nfull 3-UAV assurance cycle: {1e3 * mean_s:.2f} ms "
        f"({1.0 / mean_s:.0f} cycles/s; real-time budget at 2 Hz: 500 ms)"
    )
    print_table(
        "Per-cycle budget check",
        ["quantity", "value"],
        [
            ["mean cycle [ms]", f"{1e3 * mean_s:.2f}"],
            ["cycles per second", f"{1.0 / mean_s:.0f}"],
            ["fleet verdict", decision.verdict.value],
        ],
    )
    assert mean_s < 0.5  # comfortably real-time at the 2 Hz assurance rate
