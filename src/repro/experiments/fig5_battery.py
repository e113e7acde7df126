"""Fig. 5 — probability of failure under a battery fault, with/without SESAME.

Scenario (paper Sec. V-A): three UAVs fly a SAR mission; one UAV's battery
"became faulty due to high temperature, causing a sharp drop from 80% to
40% at the 250th second"; the mission nominally completes "around the
510th second".

Without SESAME the UAV aborts immediately on the battery drop, returns to
base for a replacement ("estimated to take 60 seconds"), flies back out
and finishes the remaining coverage — paying transit and swap overhead.

With SESAME, the SafeDrones monitor tracks the live probability of
failure; the UAV continues until the predefined PoF threshold (0.9) and
completes the mission in one pass, then performs the (by then post-
mission) emergency landing and battery replacement.

Availability definition (used consistently for both scenarios):
``availability = productive_mission_time / time_until_available_again``
where the denominator runs until the UAV is safely landed with a healthy
battery (the 60 s replacement is charged to both scenarios — the faulted
pack must be swapped either way).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.experiments.common import build_three_uav_world
from repro.safedrones.monitor import SafeDronesMonitor
from repro.sar.coverage import boustrophedon_path
from repro.uav.battery import Battery, BatteryFault
from repro.uav.uav import FlightMode, Uav

FAULT_TIME_S = 250.0
SOC_BEFORE_FAULT = 0.80
SOC_AFTER_FAULT = 0.40
POF_THRESHOLD = 0.9
BATTERY_SWAP_S = 60.0
RELAUNCH_CHECK_S = 25.0  # pre-flight checks before a mid-mission relaunch
MISSION_ALTITUDE_M = 20.0
MISSION_STRIP = ((0.0, 260.0), (0.0, 300.0))


@dataclass
class ScenarioTrace:
    """Time series and milestones from one policy run."""

    times: list[float] = field(default_factory=list)
    pof: list[float] = field(default_factory=list)
    soc: list[float] = field(default_factory=list)
    temp_c: list[float] = field(default_factory=list)
    mode: list[str] = field(default_factory=list)
    abort_time: float | None = None
    mission_complete_time: float | None = None
    available_again_time: float | None = None
    threshold_crossing_time: float | None = None
    productive_time_s: float = 0.0


@dataclass(frozen=True)
class Fig5Result:
    """Paper-figure payload: both curves plus the headline metrics."""

    with_sesame: ScenarioTrace
    without_sesame: ScenarioTrace
    nominal_mission_s: float
    availability_with: float
    availability_without: float
    availability_improvement: float
    completion_improvement: float

    def summary_rows(self) -> list[tuple[str, float, float]]:
        """(metric, with, without) rows matching the paper's narrative."""
        return [
            ("availability", self.availability_with, self.availability_without),
            (
                "time_until_available_s",
                self.with_sesame.available_again_time or float("nan"),
                self.without_sesame.available_again_time or float("nan"),
            ),
            (
                "mission_complete_s",
                self.with_sesame.mission_complete_time or float("nan"),
                self.without_sesame.mission_complete_time or float("nan"),
            ),
        ]


def _make_faulted_uav(world, uav: Uav) -> None:
    """Arrange the paper's SoC trajectory: 80% at the fault, drop to 40%.

    The initial SoC is back-computed so that after the pre-fault cruise
    drain the pack sits at 80% when the fault manifests at t=250 s.
    """
    spec = uav.battery.spec
    pre_fault_drain = spec.cruise_draw_w * FAULT_TIME_S / 3600.0 / spec.capacity_wh
    uav.battery.soc = min(1.0, SOC_BEFORE_FAULT + pre_fault_drain)
    uav.battery.inject_fault(
        BatteryFault(at_time=FAULT_TIME_S, soc_drop_to=SOC_AFTER_FAULT)
    )


def _mission_path() -> list[tuple[float, float, float]]:
    """The faulted UAV's coverage strip, sized for a ~510 s mission."""
    return boustrophedon_path(MISSION_STRIP, MISSION_ALTITUDE_M)


def _measure_nominal_mission_s(seed: int) -> float:
    """Clean-run mission duration (no fault, no policy interference)."""
    scenario = build_three_uav_world(seed=seed, n_persons=0)
    world = scenario.world
    uav = world.uavs["uav1"]
    uav.dynamics.max_speed_mps = 7.6
    uav.start_mission(_mission_path())
    while uav.mode is FlightMode.MISSION and world.time < 2000.0:
        world.step()
    return world.time


def _run_policy(seed: int, use_sesame: bool) -> ScenarioTrace:
    scenario = build_three_uav_world(seed=seed, n_persons=0)
    world = scenario.world
    uav = world.uavs["uav1"]
    uav.dynamics.max_speed_mps = 7.6
    _make_faulted_uav(world, uav)
    uav.start_mission(_mission_path())

    monitor = SafeDronesMonitor(uav_id="uav1", pof_abort_threshold=POF_THRESHOLD)
    trace = ScenarioTrace()
    swap_started: float | None = None
    resumed = False
    remaining: list[tuple[float, float, float]] = []

    while world.time < 2500.0:
        world.step()
        now = world.time
        soc = uav.battery.soc
        temp = uav.sensors.temperature.measure(uav.battery.temp_c)
        assessment = monitor.update(now, soc, temp)

        trace.times.append(now)
        trace.pof.append(assessment.failure_probability)
        trace.soc.append(soc)
        trace.temp_c.append(temp)
        trace.mode.append(uav.mode.value)
        if uav.mode is FlightMode.MISSION:
            trace.productive_time_s += world.dt

        if (
            trace.threshold_crossing_time is None
            and assessment.failure_probability >= POF_THRESHOLD
        ):
            trace.threshold_crossing_time = now

        if use_sesame:
            # SESAME policy: continue until the PoF threshold; the mission
            # normally completes first (plan completion flips the mode).
            if assessment.abort_recommended and uav.mode is FlightMode.MISSION:
                trace.abort_time = now
                uav.command_mode(FlightMode.EMERGENCY_LAND)
        else:
            # Naive policy: abort on the detected SoC collapse.
            if (
                trace.abort_time is None
                and monitor.battery_fault_detected
                and uav.mode is FlightMode.MISSION
            ):
                trace.abort_time = now
                remaining = uav.plan.waypoints[uav.plan.index :]
                uav.command_mode(FlightMode.RETURN_TO_BASE)
            if (
                trace.abort_time is not None
                and not resumed
                and uav.mode is FlightMode.LANDED
                and swap_started is None
            ):
                swap_started = now
            if (
                swap_started is not None
                and not resumed
                and now - swap_started >= BATTERY_SWAP_S + RELAUNCH_CHECK_S
            ):
                # Fresh pack installed; relaunch and finish the coverage.
                uav.battery = Battery(spec=uav.spec.battery_spec)
                resumed = True
                uav.start_mission(remaining)

        # Coverage complete (either policy): bring the aircraft down.
        if uav.plan.complete and trace.mission_complete_time is None:
            trace.mission_complete_time = now
            uav.command_mode(FlightMode.EMERGENCY_LAND)

        # Landed after mission completion (or after a mid-mission abort)
        # -> swap if the pack on board is faulted, then the UAV is
        # available again. Keep the monitor running briefly afterwards so
        # the PoF threshold crossing (which the paper's curve reaches
        # around the 510th second) is recorded even when the vehicle
        # touches down just before the crossing.
        mission_over = (
            trace.mission_complete_time is not None
            or (use_sesame and trace.abort_time is not None)
        )
        if (
            mission_over
            and uav.mode is FlightMode.LANDED
            and trace.available_again_time is None
        ):
            swap = BATTERY_SWAP_S if uav.battery.faulted else 0.0
            trace.available_again_time = now + swap
        if trace.available_again_time is not None and (
            trace.threshold_crossing_time is not None
            or now >= trace.available_again_time + 60.0
        ):
            break

    return trace


def run_fig5_battery_experiment(seed: int = 3) -> Fig5Result:
    """Run both policies and compute the availability comparison."""
    nominal = _measure_nominal_mission_s(seed)
    with_trace = _run_policy(seed, use_sesame=True)
    without_trace = _run_policy(seed, use_sesame=False)

    def availability(trace: ScenarioTrace) -> float:
        """Productive mission time over total busy time.

        The numerator is capped at the nominal mission duration so re-fly
        transit (flown in MISSION mode by the naive policy) earns no
        credit; an aborted-but-landed run keeps the credit for the work it
        did complete.
        """
        if trace.available_again_time is None:
            return 0.0
        productive = min(nominal, trace.productive_time_s)
        return min(1.0, productive / trace.available_again_time)

    availability_with = availability(with_trace)
    availability_without = availability(without_trace)
    t_w = with_trace.available_again_time or math.inf
    t_wo = without_trace.available_again_time or math.inf
    return Fig5Result(
        with_sesame=with_trace,
        without_sesame=without_trace,
        nominal_mission_s=nominal,
        availability_with=availability_with,
        availability_without=availability_without,
        availability_improvement=availability_with - availability_without,
        completion_improvement=(t_wo - t_w) / t_wo if math.isfinite(t_wo) else 0.0,
    )
