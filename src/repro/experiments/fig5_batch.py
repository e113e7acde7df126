"""Sample-axis batched Fig. 5 Monte-Carlo runner.

The scalar Monte-Carlo path (:mod:`repro.experiments.monte_carlo`) runs
one full :func:`repro.experiments.fig5_battery.run_fig5_battery_experiment`
per grid point: three worlds (nominal, SESAME, naive) of three UAVs each,
with a SafeDrones monitor update per UAV per step. This module runs *N
samples as one stacked simulation*: every sample's ``uav1`` clone becomes
one row of a single vectorized world, the per-row policy state machines
mirror ``_run_policy`` statement for statement, and the SafeDrones
monitors collapse into one :class:`repro.core.batch.BatchSafeDrones` bank
(one call per step for the whole sample axis, stepping each row through
the same closed-form battery kernel as the scalar monitor).

Bit-exactness: a sample's trajectory depends only on its own spawned RNG
streams (``uav_rng_streams`` child 0 is a pure function of the seed —
fleet membership never perturbs it), the shared ``dt``/frame/area, and
its own fault script. Rows therefore cannot contaminate each other, and
each row reproduces the scalar run to the bit —
``tests/test_assurance_equivalence.py`` pins the campaign fingerprint of
the batched path to the scalar golden.

Used via ``run_campaign(..., batch=True)`` / ``python -m repro campaign
monte-carlo --batch``: the harness hands every pending (config, seed)
pair to :func:`monte_carlo_batch` and records the per-sample results
exactly as the per-sample path would.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.batch import BatchSafeDrones
from repro.experiments import fig5_battery as fig5
from repro.experiments.common import uav_rng_streams
from repro.geo import EnuFrame, GeoPoint
from repro.sar.coverage import boustrophedon_path
from repro.uav.battery import Battery, BatteryFault
from repro.uav.uav import FlightMode, Uav, UavSpec
from repro.uav.world import World


@dataclass
class _PolicyState:
    """Per-row mirror of ``fig5_battery.ScenarioTrace`` + loop locals."""

    productive_time_s: float = 0.0
    abort_time: float | None = None
    mission_complete_time: float | None = None
    available_again_time: float | None = None
    threshold_crossing_time: float | None = None
    swap_started: float | None = None
    resumed: bool = False
    remaining: list = field(default_factory=list)
    done: bool = False


def _build_stacked_world(seeds: list[int]) -> World:
    """One vectorized world whose row *k* is sample *k*'s ``uav1`` clone.

    Mirrors ``build_three_uav_world(seed=seed_k, n_persons=0)`` as seen
    by ``uav1``: same frame, area, dt, base position, and — critically —
    the same spawned RNG stream (`SeedSequence(seed).spawn` child 0 is
    independent of how many siblings are spawned). The world's own
    generator is never consumed with zero persons, so sharing one world
    across samples is unobservable.
    """
    world = World(
        frame=EnuFrame(origin=GeoPoint(35.1456, 33.4299, 0.0)),
        rng=np.random.default_rng(0),
        area_size_m=(400.0, 300.0),
        dt=0.5,
        engine="vectorized",
    )
    for k, seed in enumerate(seeds):
        uav = Uav(
            spec=UavSpec(uav_id=f"s{k}", base_position=(30.0, -20.0, 0.0)),
            frame=world.frame,
            bus=world.bus,
            rng=uav_rng_streams(seed, 1)[0],
        )
        world.add_uav(uav)
        uav.dynamics.max_speed_mps = 7.6
    return world


def _mission_path() -> list[tuple[float, float, float]]:
    return boustrophedon_path(fig5.MISSION_STRIP, fig5.MISSION_ALTITUDE_M)


def _measure_nominal_stacked(seeds: list[int]) -> list[float]:
    """Per-row clean-run mission duration (``_measure_nominal_mission_s``)."""
    world = _build_stacked_world(seeds)
    uavs = list(world.uavs.values())
    path = _mission_path()
    for uav in uavs:
        uav.start_mission(path)
    nominal = [0.0] * len(uavs)
    active = set(range(len(uavs)))
    while active:
        for k in sorted(active):
            if not (
                uavs[k].mode is FlightMode.MISSION and world.time < 2000.0
            ):
                nominal[k] = world.time
                active.discard(k)
        if not active:
            break
        world.step()
    return nominal


def _run_policy_stacked(
    seeds: list[int],
    fault_times: list[float],
    soc_after: list[float],
    use_sesame: bool,
) -> list[_PolicyState]:
    """All samples' ``_run_policy`` runs, stepped as one stacked world.

    The loop body is the scalar policy body verbatim, executed per active
    row each step; the SafeDrones monitors are one batched bank (scalar
    construction: ``SafeDronesMonitor(pof_abort_threshold=0.9)`` with no
    ``motors_failed`` feed). Rows that reach their scalar break condition
    go inactive — the world keeps stepping for the stragglers, which the
    finished rows' recorded state no longer observes.
    """
    n = len(seeds)
    world = _build_stacked_world(seeds)
    fleet = world._fleet
    arrays = fleet.arrays
    uavs = list(world.uavs.values())
    path = _mission_path()
    for k, uav in enumerate(uavs):
        # _make_faulted_uav, with per-row scenario constants.
        spec = uav.battery.spec
        pre_fault_drain = (
            spec.cruise_draw_w * fault_times[k] / 3600.0 / spec.capacity_wh
        )
        uav.battery.soc = min(1.0, fig5.SOC_BEFORE_FAULT + pre_fault_drain)
        uav.battery.inject_fault(
            BatteryFault(at_time=fault_times[k], soc_drop_to=soc_after[k])
        )
        uav.start_mission(path)

    monitors = BatchSafeDrones(
        n,
        [uav.spec.rotor_count for uav in uavs],
        pof_abort_threshold=fig5.POF_THRESHOLD,
    )
    temp_std = np.array(
        [uav.sensors.temperature.noise_std_c for uav in uavs], dtype=float
    )
    states = [_PolicyState() for _ in range(n)]
    active = list(range(n))
    dt = world.dt
    swap_ready_s = fig5.BATTERY_SWAP_S + fig5.RELAUNCH_CHECK_S

    while active and world.time < 2500.0:
        world.step()
        now = world.time
        soc = arrays.soc[:n].copy()
        zt = fleet.ch_temp.take_all()[:n, 0]
        temp = arrays.temp_c[:n] + temp_std * zt
        total = monitors.update(now, soc, temp)

        soc_l = soc.tolist()
        temp_l = temp.tolist()
        pof_l = total.tolist()
        fault_detected = monitors.battery_fault_detected
        abort_recommended = monitors.abort_recommended
        still_active = []
        for k in active:
            uav = uavs[k]
            state = states[k]
            pof = pof_l[k]
            if uav.mode is FlightMode.MISSION:
                state.productive_time_s += dt
            if (
                state.threshold_crossing_time is None
                and pof >= fig5.POF_THRESHOLD
            ):
                state.threshold_crossing_time = now

            if use_sesame:
                if abort_recommended[k] and uav.mode is FlightMode.MISSION:
                    state.abort_time = now
                    uav.command_mode(FlightMode.EMERGENCY_LAND)
            else:
                if (
                    state.abort_time is None
                    and fault_detected[k]
                    and uav.mode is FlightMode.MISSION
                ):
                    state.abort_time = now
                    state.remaining = uav.plan.waypoints[uav.plan.index:]
                    uav.command_mode(FlightMode.RETURN_TO_BASE)
                if (
                    state.abort_time is not None
                    and not state.resumed
                    and uav.mode is FlightMode.LANDED
                    and state.swap_started is None
                ):
                    state.swap_started = now
                if (
                    state.swap_started is not None
                    and not state.resumed
                    and now - state.swap_started >= swap_ready_s
                ):
                    uav.battery = Battery(spec=uav.spec.battery_spec)
                    state.resumed = True
                    uav.start_mission(state.remaining)

            if uav.plan.complete and state.mission_complete_time is None:
                state.mission_complete_time = now
                uav.command_mode(FlightMode.EMERGENCY_LAND)

            mission_over = state.mission_complete_time is not None or (
                use_sesame and state.abort_time is not None
            )
            if (
                mission_over
                and uav.mode is FlightMode.LANDED
                and state.available_again_time is None
            ):
                swap = fig5.BATTERY_SWAP_S if uav.battery.faulted else 0.0
                state.available_again_time = now + swap
            if state.available_again_time is not None and (
                state.threshold_crossing_time is not None
                or now >= state.available_again_time + 60.0
            ):
                state.done = True
            else:
                still_active.append(k)
        active = still_active
        # Unused per-step locals kept to match scalar reads exactly.
        del soc_l, temp_l
    return states


def _availability(state: _PolicyState, nominal: float) -> float:
    """``run_fig5_battery_experiment``'s availability, per row."""
    if state.available_again_time is None:
        return 0.0
    productive = min(nominal, state.productive_time_s)
    return min(1.0, productive / state.available_again_time)


def monte_carlo_batch(configs: list[dict], seeds: list[int], timer) -> list[dict]:
    """The entire pending grid as one stacked simulation per policy.

    Returns per-sample result dicts bit-identical to
    :func:`repro.experiments.monte_carlo.monte_carlo_sample` — the
    campaign fingerprint of a batched run must equal the scalar golden.
    """
    run_seeds = [
        int(config.get("seed", seed)) for config, seed in zip(configs, seeds)
    ]
    fault_times = [float(config["fault_time_s"]) for config in configs]
    soc_after = [float(config["soc_after_fault"]) for config in configs]
    with timer.phase("simulate"):
        nominal = _measure_nominal_stacked(run_seeds)
        with_states = _run_policy_stacked(
            run_seeds, fault_times, soc_after, use_sesame=True
        )
        without_states = _run_policy_stacked(
            run_seeds, fault_times, soc_after, use_sesame=False
        )
    results = []
    for k, config in enumerate(configs):
        with_state = with_states[k]
        results.append(
            {
                "seed": run_seeds[k],
                "fault_time_s": fault_times[k],
                "soc_after_fault": soc_after[k],
                "availability_with": _availability(with_state, nominal[k]),
                "availability_without": _availability(
                    without_states[k], nominal[k]
                ),
                "completed_one_pass": (
                    with_state.abort_time is None
                    and with_state.mission_complete_time is not None
                ),
            }
        )
    return results
