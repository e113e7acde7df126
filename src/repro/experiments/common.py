"""Shared scenario construction for the experiment drivers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geo import EnuFrame, GeoPoint
from repro.middleware.rosbus import RosBus
from repro.uav.uav import Uav, UavSpec
from repro.uav.world import World, engine_for


@dataclass(frozen=True)
class FleetScenario:
    """A world populated with a three-UAV fleet, ready for an experiment."""

    world: World
    uav_ids: tuple[str, ...]


def uav_rng_streams(seed: int, n_uavs: int) -> list[np.random.Generator]:
    """Independent per-UAV generators spawned from the scenario seed.

    Stream ``i`` is fully determined by ``(seed, spawn_key=(i,))`` — a
    :meth:`numpy.random.SeedSequence.spawn` child — so UAV ``i``'s draws
    do not depend on how many UAVs the fleet contains or on any other
    UAV's consumption. Adding, removing, or reordering fleet members
    therefore never perturbs an existing UAV's noise sequence (with one
    shared generator, every downstream draw shifted).
    """
    children = np.random.SeedSequence(seed).spawn(n_uavs)
    return [np.random.default_rng(child) for child in children]


def build_three_uav_world(
    seed: int = 0,
    area_size_m: tuple[float, float] = (400.0, 300.0),
    dt: float = 0.5,
    n_persons: int = 8,
    bus: RosBus | None = None,
    n_uavs: int = 3,
    engine: str | None = None,
) -> FleetScenario:
    """Create the paper's three-UAV setup on a fresh world.

    UAVs start at spaced base positions along the south edge, matching the
    platform demonstration of Fig. 4. Pass ``bus`` to run the fleet over a
    custom transport (e.g. a :class:`~repro.middleware.degraded.DegradedBus`);
    the default is the perfect in-process bus. ``n_uavs`` extends (or
    shrinks) the fleet along the same south edge; fleets up to three keep
    the paper's exact 150 m spacing, while larger fleets spread evenly
    across the area width so every base stays adjacent to the search area
    (at 150 m apart a 50-UAV fleet would start kilometres outside it).
    The world keeps its own generator and each UAV gets an independent
    spawned stream, so the fleet size never changes an existing UAV's
    draws.

    The world's step implementation comes from the fleet size
    (:func:`~repro.uav.world.engine_for`); ``engine`` ("scalar" or
    "vectorized") overrides it for reference comparisons. Both produce
    bit-identical trajectories.
    """
    rng = np.random.default_rng(seed)
    kwargs = {} if bus is None else {"bus": bus}
    world = World(
        frame=EnuFrame(origin=GeoPoint(35.1456, 33.4299, 0.0)),
        rng=rng,
        area_size_m=area_size_m,
        dt=dt,
        engine=engine_for(n_uavs) if engine is None else engine,
        **kwargs,
    )
    uav_ids = tuple(f"uav{i + 1}" for i in range(n_uavs))
    spacing = (
        150.0
        if n_uavs <= 3
        else max(1.0, (area_size_m[0] - 60.0) / (n_uavs - 1))
    )
    for i, (uav_id, uav_rng) in enumerate(
        zip(uav_ids, uav_rng_streams(seed, n_uavs))
    ):
        base = (30.0 + spacing * i, -20.0, 0.0)
        uav = Uav(
            spec=UavSpec(uav_id=uav_id, base_position=base),
            frame=world.frame,
            bus=world.bus,
            rng=uav_rng,
        )
        world.add_uav(uav)
    if n_persons > 0:
        world.scatter_persons(n_persons)
    return FleetScenario(world=world, uav_ids=uav_ids)
