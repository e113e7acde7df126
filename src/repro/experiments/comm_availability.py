"""Mission availability under degraded inter-UAV communications.

Applies the Fig. 5 availability methodology to the communication
dimension. The scenario is the one where the paper's Communication-based
Localization ConSert actually carries the mission: night operations with
GPS denied (jamming) and cameras unusable, so collaborative navigation
over the inter-UAV mesh is the only localization source. Telemetry then
crosses a :class:`~repro.middleware.degraded.DegradedBus` whose per-pair
links run the Gilbert–Elliott burst-loss channel at a swept loss level,
and each UAV's EDDI consumes only what actually arrives (via
:func:`~repro.core.adapters.attach_degraded_comm`).

``availability`` is, per UAV, the fraction of mission time its ConSert
network still offers a mission-capable guarantee (``CONTINUE_MISSION`` or
better) — averaged over the fleet. As loss climbs, windowed delivery
ratios fall below the comm-evidence threshold, ``comm_localization_ok``
collapses, and the network demotes to the unconditional default
(emergency landing), eroding availability exactly like the battery fault
erodes it in Fig. 5.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from repro.core.adapters import attach_degraded_comm, build_uav_eddi
from repro.core.uav_network import UavGuarantee
from repro.experiments.common import build_three_uav_world
from repro.harness.campaign import (
    CampaignExperiment,
    CampaignResult,
    register_experiment,
    run_campaign,
)
from repro.harness.timing import PhaseTimer
from repro.middleware.degraded import DegradedBus, LinkModel
from repro.safedrones.communication import GilbertElliottChannel
from repro.uav.uav import FlightMode

MISSION_CAPABLE = (
    UavGuarantee.CONTINUE_MISSION_EXTRA,
    UavGuarantee.CONTINUE_MISSION,
)


@dataclass(frozen=True)
class CommSweepPoint:
    """One loss level of the sweep."""

    loss_rate: float
    expected_delivery: float
    measured_delivery: float
    availability: float
    demotions: int


@dataclass(frozen=True)
class CommAvailabilityResult:
    """The loss-rate sweep backing the degraded-comm availability figure."""

    points: tuple[CommSweepPoint, ...]
    duration_s: float
    staleness_s: float

    def summary_rows(self) -> list[tuple[float, float, float, float, int]]:
        """(loss, expected delivery, measured delivery, availability, demotions)."""
        return [
            (
                p.loss_rate,
                p.expected_delivery,
                p.measured_delivery,
                p.availability,
                p.demotions,
            )
            for p in self.points
        ]


def _make_channel(loss: float, rng: np.random.Generator) -> GilbertElliottChannel:
    """A moderately bursty GE channel whose GOOD-state loss is ``loss``."""
    return GilbertElliottChannel(
        rng=rng,
        p_good_to_bad=0.02,
        p_bad_to_good=0.25,
        loss_good=loss,
        loss_bad=min(1.0, loss + 0.3),
    )


def _run_point(
    loss: float,
    seed: int,
    duration_s: float,
    staleness_s: float,
) -> CommSweepPoint:
    bus = DegradedBus(rng=np.random.default_rng(seed + 1))
    scenario = build_three_uav_world(seed=seed, n_persons=0, bus=bus)
    world = scenario.world

    # Night ops under GPS jamming: comm localization carries the mission.
    for uav in world.uavs.values():
        uav.sensors.gps.denied = True
        uav.sensors.camera.health = 0.2
    channels = []
    for i, (a, b) in enumerate(combinations(scenario.uav_ids, 2)):
        channel = _make_channel(loss, np.random.default_rng(seed * 100 + i))
        channels.append(channel)
        bus.set_link(a, b, LinkModel(channel=channel))

    eddis = {}
    monitors = []
    for uav_id, uav in world.uavs.items():
        # Fleet spacing exceeds the default CL range; the scenario assumes
        # the mesh radio covers the whole search area.
        eddi, stack = build_uav_eddi(uav, world, cl_range_m=500.0)
        peers = tuple(p for p in scenario.uav_ids if p != uav_id)
        monitor = attach_degraded_comm(
            eddi,
            stack,
            bus,
            peers,
            staleness_s=staleness_s,
            nominal_rate_hz=uav.telemetry_rate_hz,
        )
        eddis[uav_id] = eddi
        monitors.append(monitor)
        # Hold on station at mission altitude; the question the sweep
        # answers is purely what guarantee the assurance layer can offer.
        east, north, _ = uav.spec.base_position
        uav.dynamics.position = (east, north + 60.0, 20.0)
        uav.command_mode(FlightMode.HOLD)

    demotions = 0
    mission_cycles = {uav_id: 0 for uav_id in eddis}
    cycles = 0
    while world.time < duration_s:
        world.step()
        cycles += 1
        for uav_id, eddi in eddis.items():
            guarantee = eddi.step(world.time)
            if guarantee in MISSION_CAPABLE:
                mission_cycles[uav_id] += 1
    for eddi in eddis.values():
        demotions += sum(
            1 for r in eddi.response_log if r.guarantee not in MISSION_CAPABLE
        )
    for monitor in monitors:
        monitor.detach()

    availability = (
        sum(mission_cycles.values()) / (cycles * len(eddis)) if cycles else 0.0
    )
    return CommSweepPoint(
        loss_rate=loss,
        expected_delivery=channels[0].expected_delivery_ratio(),
        measured_delivery=bus.stats.delivery_ratio,
        availability=availability,
        demotions=demotions,
    )


def comm_availability_sample(config: dict, seed: int, timer: PhaseTimer) -> dict:
    """One campaign sample: a full mission at one link-loss level.

    ``config`` may pin an explicit ``seed`` (the figure-style sweep runs
    every loss level at the same scenario seed so the loss axis is the
    only thing that varies); otherwise the harness-assigned per-sample
    stream seed is used.
    """
    run_seed = int(config.get("seed", seed))
    with timer.phase("simulate"):
        point = _run_point(
            float(config["loss_rate"]),
            run_seed,
            float(config["duration_s"]),
            float(config["staleness_s"]),
        )
    return {
        "seed": run_seed,
        "loss_rate": point.loss_rate,
        "expected_delivery": point.expected_delivery,
        "measured_delivery": point.measured_delivery,
        "availability": point.availability,
        "demotions": point.demotions,
        "duration_s": float(config["duration_s"]),
        "staleness_s": float(config["staleness_s"]),
    }


def comm_availability_grid(preset: str) -> list[dict]:
    """Loss-level grids; smoke trades duration for CI turnaround."""
    if preset == "smoke":
        losses, duration = (0.0, 0.45, 0.85), 60.0
    elif preset == "default":
        losses, duration = (0.0, 0.2, 0.45, 0.7, 0.85), 240.0
    elif preset == "full":
        losses, duration = tuple(i / 10 for i in range(10)), 240.0
    else:
        raise ValueError(f"unknown comm grid preset {preset!r}")
    return [
        {"loss_rate": loss, "duration_s": duration, "staleness_s": 4.0}
        for loss in losses
    ]


def result_from_campaign(campaign: CampaignResult) -> CommAvailabilityResult:
    """Reassemble the sweep result object from campaign sample records."""
    points = tuple(
        CommSweepPoint(
            loss_rate=r["loss_rate"],
            expected_delivery=r["expected_delivery"],
            measured_delivery=r["measured_delivery"],
            availability=r["availability"],
            demotions=r["demotions"],
        )
        for r in campaign.results
    )
    first = campaign.results[0] if campaign.results else {}
    return CommAvailabilityResult(
        points=points,
        duration_s=first.get("duration_s", 0.0),
        staleness_s=first.get("staleness_s", 0.0),
    )


def summarize_comm(campaign: CampaignResult) -> str:
    """The loss/delivery/availability table for the CLI."""
    lines = ["loss    delivery (exp/meas)   availability   demotions"]
    for r in campaign.results:
        lines.append(
            f"{r['loss_rate']:<7.2f} {r['expected_delivery']:.3f} /"
            f" {r['measured_delivery']:.3f}        "
            f"{r['availability']:<14.3f} {r['demotions']}"
        )
    return "\n".join(lines)


COMM_CAMPAIGN = register_experiment(
    CampaignExperiment(
        name="comm",
        sample_fn=comm_availability_sample,
        grids=comm_availability_grid,
        describe="degraded-link mission availability loss sweep",
        summarize=summarize_comm,
    )
)


def run_comm_availability_experiment(
    loss_rates: tuple[float, ...] = (0.0, 0.2, 0.45, 0.7, 0.85),
    seed: int = 7,
    duration_s: float = 240.0,
    staleness_s: float = 4.0,
    workers: int = 1,
    cache_dir=None,
) -> CommAvailabilityResult:
    """Sweep link loss and report fleet mission availability per level.

    Runs through the campaign engine — pass ``workers`` to shard the
    loss levels across processes (identical results at any worker count)
    and ``cache_dir`` to skip already-completed points. Every level runs
    at the same scenario ``seed``, matching the figure's construction.
    """
    configs = [
        {
            "loss_rate": loss,
            "duration_s": duration_s,
            "staleness_s": staleness_s,
            "seed": seed,
        }
        for loss in loss_rates
    ]
    campaign = run_campaign(
        COMM_CAMPAIGN, grid=configs, workers=workers, cache_dir=cache_dir
    )
    return result_from_campaign(campaign)
