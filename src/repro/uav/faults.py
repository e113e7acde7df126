"""Generic fault-injection framework for dependability testing.

The SESAME technologies exist to handle faults; this framework injects
them reproducibly: each :class:`Fault` manifests at a scheduled time on a
target UAV (motor loss, GPS denial, camera degradation, IMU failure,
battery collapse, and — over a :class:`~repro.middleware.degraded.DegradedBus`
— comm blackouts, link degradation, and network partitions), and a
:class:`FaultSchedule` steps the whole campaign
alongside the world — the harness behind failure-injection test suites
and resilience benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.middleware.degraded import DegradedBus
from repro.obs import event
from repro.uav.battery import BatteryFault
from repro.uav.uav import Uav


@dataclass
class Fault:
    """One scheduled fault with apply (and optional clear) actions."""

    name: str
    target_uav: str
    at_time: float
    apply: Callable[[Uav], None]
    clear: Callable[[Uav], None] | None = None
    clear_at_time: float | None = None
    applied: bool = False
    cleared: bool = False

    @property
    def done(self) -> bool:
        """Whether this fault has fully run its course (no pending action)."""
        return self.applied and (self.clear is None or self.cleared)

    def step(self, now: float, uav: Uav) -> bool:
        """Apply/clear when due; returns True if a transition happened."""
        changed = False
        if not self.applied and now >= self.at_time:
            self.apply(uav)
            self.applied = True
            changed = True
        if (
            self.applied
            and not self.cleared
            and self.clear is not None
            and self.clear_at_time is not None
            and now >= self.clear_at_time
        ):
            self.clear(uav)
            self.cleared = True
            changed = True
        return changed


# ------------------------------------------------------- fault factories
def gps_denial(target_uav: str, at_time: float, duration_s: float | None = None) -> Fault:
    """Deny GPS (jamming); optionally restore after ``duration_s``."""

    def apply(uav: Uav) -> None:
        uav.sensors.gps.denied = True

    def clear(uav: Uav) -> None:
        uav.sensors.gps.denied = False

    return Fault(
        name="gps_denial",
        target_uav=target_uav,
        at_time=at_time,
        apply=apply,
        clear=clear if duration_s is not None else None,
        clear_at_time=at_time + duration_s if duration_s is not None else None,
    )


def gps_spoof(target_uav: str, at_time: float, offset_m: tuple[float, float, float]) -> Fault:
    """Apply a fixed GPS spoof offset."""
    return Fault(
        name="gps_spoof",
        target_uav=target_uav,
        at_time=at_time,
        apply=lambda uav: setattr(uav.sensors.gps, "spoof_offset_m", offset_m),
    )


def camera_degradation(target_uav: str, at_time: float, rate_per_s: float = 0.02) -> Fault:
    """Start progressive camera degradation (dirt, condensation)."""
    return Fault(
        name="camera_degradation",
        target_uav=target_uav,
        at_time=at_time,
        apply=lambda uav: setattr(uav.sensors.camera, "degradation_rate", rate_per_s),
    )


def imu_failure(target_uav: str, at_time: float) -> Fault:
    """Hard IMU failure (velocity output freezes at zero)."""
    return Fault(
        name="imu_failure",
        target_uav=target_uav,
        at_time=at_time,
        apply=lambda uav: setattr(uav.sensors.imu, "healthy", False),
    )


def motor_failure(target_uav: str, at_time: float) -> Fault:
    """One motor fails (reported by the flight controller's ESC telemetry)."""

    def apply(uav: Uav) -> None:
        uav.motors_failed += 1

    return Fault(
        name="motor_failure",
        target_uav=target_uav,
        at_time=at_time,
        apply=apply,
    )


def battery_collapse(target_uav: str, at_time: float, soc_drop_to: float = 0.4) -> Fault:
    """Schedule the Fig. 5 style battery cell-group collapse."""

    def apply(uav: Uav) -> None:
        uav.battery.inject_fault(
            BatteryFault(at_time=at_time, soc_drop_to=soc_drop_to)
        )

    # Injection arms the battery's own schedule, so apply slightly early.
    return Fault(
        name="battery_collapse",
        target_uav=target_uav,
        at_time=max(0.0, at_time - 1.0),
        apply=apply,
    )


def comm_blackout(
    bus: DegradedBus, target_uav: str, at_time: float, duration_s: float
) -> Fault:
    """Total radio blackout of one UAV for ``duration_s`` seconds.

    While active nothing reaches or leaves the target over the degraded
    bus — its peers' evidence-staleness watermarks expire and their
    ConSerts demote, exactly the Communication-based Localization path.
    """

    def apply(uav: Uav) -> None:
        bus.set_node_down(target_uav, True)

    def clear(uav: Uav) -> None:
        bus.set_node_down(target_uav, False)

    return Fault(
        name="comm_blackout",
        target_uav=target_uav,
        at_time=at_time,
        apply=apply,
        clear=clear,
        clear_at_time=at_time + duration_s,
    )


def comm_degradation(
    bus: DegradedBus,
    target_uav: str,
    at_time: float,
    loss_probability: float = 0.5,
    duration_s: float | None = None,
) -> Fault:
    """Sustained packet loss on every link to/from one UAV.

    Models interference or antenna damage: each packet touching the
    target is additionally dropped with ``loss_probability``; optionally
    restored after ``duration_s``.
    """

    def apply(uav: Uav) -> None:
        bus.set_node_loss(target_uav, loss_probability)

    def clear(uav: Uav) -> None:
        bus.set_node_loss(target_uav, 0.0)

    return Fault(
        name="comm_degradation",
        target_uav=target_uav,
        at_time=at_time,
        apply=apply,
        clear=clear if duration_s is not None else None,
        clear_at_time=at_time + duration_s if duration_s is not None else None,
    )


def network_partition(
    bus: DegradedBus,
    group_a: tuple[str, ...],
    group_b: tuple[str, ...],
    at_time: float,
    duration_s: float | None = None,
) -> Fault:
    """Split the fleet into two groups that cannot hear each other.

    Models geographic separation or a relay failure. The fault is
    scheduled on the first UAV of ``group_a`` (the schedule needs a
    target) but affects all cross-group traffic.
    """
    if not group_a or not group_b:
        raise ValueError("both partition groups need at least one node")
    handle_box: list = []

    def apply(uav: Uav) -> None:
        handle_box.append(bus.add_partition(tuple(group_a), tuple(group_b)))

    def clear(uav: Uav) -> None:
        if handle_box:
            bus.remove_partition(handle_box.pop())

    return Fault(
        name="network_partition",
        target_uav=group_a[0],
        at_time=at_time,
        apply=apply,
        clear=clear if duration_s is not None else None,
        clear_at_time=at_time + duration_s if duration_s is not None else None,
    )


@dataclass
class FaultSchedule:
    """A reproducible fault campaign over a fleet."""

    faults: list[Fault] = field(default_factory=list)
    log: list[tuple[float, str, str]] = field(default_factory=list)

    def add(self, fault: Fault, uavs: dict[str, Uav] | None = None) -> Fault:
        """Register one fault.

        Pass the fleet as ``uavs`` to validate the target eagerly — the
        one place a typo'd UAV id should fail, instead of blowing up an
        already-running campaign from :meth:`step`.
        """
        if uavs is not None and fault.target_uav not in uavs:
            raise KeyError(f"fault targets unknown UAV {fault.target_uav!r}")
        self.faults.append(fault)
        return fault

    def step(self, now: float, uavs: dict[str, Uav]) -> None:
        """Apply all due faults.

        Completed faults are skipped outright, and a fault whose target is
        (currently) absent from ``uavs`` simply waits — fleets change
        mid-campaign (UAVs land, swap batteries, get decommissioned) and
        that must not crash the run. Validate targets up front via
        ``add(fault, uavs)``.
        """
        for fault in self.faults:
            if fault.done:
                continue
            uav = uavs.get(fault.target_uav)
            if uav is None:
                continue
            if fault.step(now, uav):
                state = "cleared" if fault.cleared else "applied"
                self.log.append((now, fault.name, state))
                event(
                    "warning" if state == "applied" else "info",
                    "uav.faults",
                    f"fault_{state}",
                    sim_time=now,
                    uav=fault.target_uav,
                    fault=fault.name,
                )
