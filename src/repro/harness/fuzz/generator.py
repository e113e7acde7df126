"""Seeded procedural scenario generator.

``ScenarioGenerator(seed).generate(profile)`` draws a complete scenario
config — world size, fleet mix, missions, weather, survivor count, fault
and attack scripts — from one :class:`numpy.random.Generator` stream, so
the whole scenario is a pure function of ``(seed, profile)``:

- same seed ⇒ byte-identical JSON (:meth:`ScenarioGenerator.generate_json`
  serialises with sorted keys), across processes and platforms;
- every emitted config, of either kind, loads and lints clean under
  :func:`repro.scenario.lint_scenario`;
- every drawn value is a plain Python scalar/list (no NumPy types), so
  the config survives JSON serialisation unchanged.

Profiles shape the distribution, not the mechanism: ``smoke`` is small
and fast enough for a per-PR CI gate, ``default`` covers the full fault
vocabulary, ``hostile`` pushes fleet size, weather, comm partitions and
spoofing attacks to the configured limits.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from repro.schema import COMM_FAULT_TYPES, VEHICLE_FAULT_TYPES

#: Fault vocabulary of :data:`repro.schema.SAR`. The draw picks by
#: index, so the declaration's order is part of the byte-stable format.
BASIC_FAULTS = VEHICLE_FAULT_TYPES
COMM_FAULTS = COMM_FAULT_TYPES


@dataclass(frozen=True)
class FuzzProfile:
    """Shape of the scenario distribution one fuzzing tier draws from."""

    name: str
    #: Inclusive fleet-size bounds.
    uavs: tuple[int, int]
    #: Simulated horizon bounds (seconds); rounded to a ``dt`` multiple.
    horizon_s: tuple[float, float]
    #: Candidate simulation step sizes.
    dt_choices: tuple[float, ...]
    #: Square world-side bounds (metres).
    area_m: tuple[float, float]
    #: Inclusive survivor-count bounds.
    persons: tuple[int, int]
    #: Maximum scripted faults per scenario (draw is uniform 0..max).
    max_faults: int
    #: Fault vocabulary this tier draws from.
    fault_types: tuple[str, ...]
    #: Maximum ros_spoofing attacks per scenario.
    max_attacks: int
    #: Probability a UAV gets a waypoint mission (else it idles at base).
    p_mission: float
    #: Probability the scenario carries an explicit weather section.
    p_environment: float
    #: Fraction of this tier's fuzz grid drawn as leader–follower swarm
    #: tasking scenarios (:meth:`ScenarioGenerator.generate_swarm`);
    #: ``0.0`` keeps the tier pure SAR-scenario fuzzing.
    swarm_share: float = 0.0
    #: Inclusive leader-count (K) bounds for drawn swarm scenarios.
    swarm_leaders: tuple[int, int] = (1, 4)
    #: Inclusive followers-per-leader (ρ) bounds.
    swarm_rho: tuple[int, int] = (1, 8)
    #: Inclusive PoI-workload bounds.
    swarm_pois: tuple[int, int] = (10, 120)
    #: Square world-side bounds (metres) for swarm scenarios.
    swarm_area_m: tuple[float, float] = (300.0, 900.0)
    #: Base link-loss bounds (geometry pushes loss to 1.0 out of range).
    swarm_loss: tuple[float, float] = (0.0, 0.5)
    #: Horizon bounds (seconds) for swarm scenarios.
    swarm_horizon_s: tuple[float, float] = (60.0, 180.0)
    #: Maximum scripted swarm faults (follower loss / leader demotion).
    swarm_max_faults: int = 3
    #: Probability the scenario carries a 3D ``obstacles`` block (routed
    #: missions + the ``planned_path_clearance`` oracle). The gate draw
    #: only happens when this is non-zero, so tiers that keep the default
    #: 0.0 preserve their existing draw sequences byte for byte.
    p_obstacles: float = 0.0


PROFILES: dict[str, FuzzProfile] = {
    profile.name: profile
    for profile in (
        FuzzProfile(
            name="smoke",
            uavs=(1, 4),
            horizon_s=(20.0, 40.0),
            dt_choices=(0.5,),
            area_m=(150.0, 400.0),
            persons=(0, 3),
            max_faults=2,
            fault_types=BASIC_FAULTS,
            max_attacks=0,
            p_mission=0.8,
            p_environment=0.4,
        ),
        FuzzProfile(
            name="default",
            uavs=(1, 16),
            horizon_s=(30.0, 90.0),
            dt_choices=(0.5,),
            area_m=(200.0, 800.0),
            persons=(0, 8),
            max_faults=4,
            fault_types=BASIC_FAULTS + COMM_FAULTS,
            max_attacks=1,
            p_mission=0.8,
            p_environment=0.5,
        ),
        FuzzProfile(
            name="hostile",
            uavs=(4, 64),
            horizon_s=(40.0, 120.0),
            dt_choices=(0.25, 0.5),
            area_m=(300.0, 1500.0),
            persons=(0, 16),
            max_faults=8,
            fault_types=BASIC_FAULTS + COMM_FAULTS,
            max_attacks=3,
            p_mission=0.9,
            p_environment=0.8,
            # A quarter of the hostile grid exercises the swarm tasking
            # protocol instead of the SAR engine (K/ρ sweeps under loss,
            # scripted follower deaths and leader demotions).
            swarm_share=0.25,
            swarm_leaders=(1, 4),
            swarm_rho=(1, 8),
            swarm_pois=(10, 120),
            swarm_loss=(0.0, 0.5),
            swarm_max_faults=3,
            # A third of hostile SAR scenarios fly an urban obstacle
            # field, exercising the planner and its clearance oracle.
            p_obstacles=0.35,
        ),
    )
}


def get_profile(name: str | FuzzProfile) -> FuzzProfile:
    """Resolve a profile by name (pass-through for profile objects)."""
    if isinstance(name, FuzzProfile):
        return name
    try:
        return PROFILES[name]
    except KeyError:
        known = ", ".join(sorted(PROFILES))
        raise KeyError(
            f"unknown fuzz profile {name!r}; known profiles: {known}"
        ) from None


class ScenarioGenerator:
    """Deterministic scenario sampler: one RNG stream, consumed in order.

    Draw order is part of the format — every draw happens in a fixed
    sequence regardless of which branches fire, so two generators built
    from the same seed replay identical scenarios. (Conditional sections
    draw their gate first, then their contents only when the gate fires;
    that is still deterministic because the gate consumes the stream.)
    """

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)
        self._rng = np.random.default_rng(self.seed)

    # ------------------------------------------------------------ draws
    def _uniform(self, lo: float, hi: float, ndigits: int = 2) -> float:
        return round(float(self._rng.uniform(lo, hi)), ndigits)

    def _int(self, lo: int, hi: int) -> int:
        """Inclusive integer draw."""
        return int(self._rng.integers(lo, hi + 1))

    def _choice(self, options) -> object:
        return options[int(self._rng.integers(len(options)))]

    def _chance(self, p: float) -> bool:
        return bool(self._rng.random() < p)

    # ------------------------------------------------------- generation
    def generate(self, profile: str | FuzzProfile = "default") -> dict:
        """One scenario config drawn from ``profile``'s distribution."""
        profile = get_profile(profile)
        rng = self._rng

        dt = float(self._choice(profile.dt_choices))
        area = self._uniform(*profile.area_m, ndigits=0)
        n_uavs = self._int(*profile.uavs)
        horizon_steps = max(
            1, int(round(self._uniform(*profile.horizon_s, ndigits=1) / dt))
        )

        config: dict = {
            "description": f"fuzz profile={profile.name} seed={self.seed}",
            "seed": int(rng.integers(0, 2**31)),
            "dt": dt,
            "area_size_m": [area, area],
            "horizon_s": round(horizon_steps * dt, 6),
            "persons": self._int(*profile.persons),
            "uavs": [],
        }

        if self._chance(profile.p_environment):
            config["environment"] = {
                "wind_mean_mps": self._uniform(0.0, 12.0),
                "wind_direction_deg": self._uniform(0.0, 360.0, ndigits=0),
                "ambient_c": self._uniform(-10.0, 45.0, ndigits=1),
                "visibility": str(self._choice(("good", "good", "poor"))),
            }

        uav_ids = [f"uav{i + 1}" for i in range(n_uavs)]
        for uav_id in uav_ids:
            uav: dict = {
                "id": uav_id,
                "base": [
                    self._uniform(0.0, area),
                    self._uniform(0.0, area),
                    0.0,
                ],
                "rotors": int(self._choice((4, 4, 6, 8))),
                "max_speed_mps": self._uniform(6.0, 14.0, ndigits=1),
            }
            if self._chance(profile.p_mission):
                uav["mission"] = [
                    [
                        self._uniform(0.0, area),
                        self._uniform(0.0, area),
                        self._uniform(5.0, 40.0, ndigits=1),
                    ]
                    for _ in range(self._int(1, 4))
                ]
            config["uavs"].append(uav)

        horizon = config["horizon_s"]
        faults = [
            self._draw_fault(profile, uav_ids, horizon)
            for _ in range(self._int(0, profile.max_faults))
        ]
        config["faults"] = [fault for fault in faults if fault is not None]

        config["attacks"] = [
            {
                "type": "ros_spoofing",
                "topic": f"/{self._choice(uav_ids)}/pose",
                "sender": str(self._choice(uav_ids)),
                "start": self._uniform(1.0, max(1.5, 0.5 * horizon), ndigits=1),
                "rate_hz": self._uniform(0.5, 10.0, ndigits=1),
            }
            for _ in range(self._int(0, profile.max_attacks))
        ]

        # Trailing, gated draw: tiers with p_obstacles == 0.0 never touch
        # the stream here, so their historical corpora stay byte-identical.
        if profile.p_obstacles > 0.0 and self._chance(profile.p_obstacles):
            config["obstacles"] = self._draw_obstacles(area)
        return config

    def _draw_obstacles(self, area: float) -> dict:
        """One urban obstacle block over an ``area``-sided world.

        All primitives rise from the ground and the ceiling is left
        implicit (the loader derives it above the tallest obstacle plus
        inflation), so free space is always connected through the top
        layer and the A* planner can never be asked for an impossible
        route.
        """
        cell = float(self._choice((6.0, 8.0)))
        inflation = self._uniform(2.0, 5.0, ndigits=1)
        boxes = []
        for _ in range(self._int(1, 3)):
            center_e = self._uniform(0.1 * area, 0.9 * area, ndigits=1)
            center_n = self._uniform(0.1 * area, 0.9 * area, ndigits=1)
            half_e = self._uniform(5.0, 30.0, ndigits=1)
            half_n = self._uniform(5.0, 30.0, ndigits=1)
            height = self._uniform(10.0, 40.0, ndigits=1)
            boxes.append(
                {
                    "min": [round(center_e - half_e, 1),
                            round(center_n - half_n, 1), 0.0],
                    "max": [round(center_e + half_e, 1),
                            round(center_n + half_n, 1), height],
                }
            )
        cylinders = []
        for _ in range(self._int(0, 2)):
            cylinders.append(
                {
                    "center": [
                        self._uniform(0.1 * area, 0.9 * area, ndigits=1),
                        self._uniform(0.1 * area, 0.9 * area, ndigits=1),
                    ],
                    "radius": self._uniform(3.0, 15.0, ndigits=1),
                    "height": self._uniform(10.0, 35.0, ndigits=1),
                }
            )
        return {
            "cell_m": cell,
            "inflation_m": inflation,
            "boxes": boxes,
            "cylinders": cylinders,
        }

    def _draw_fault(
        self, profile: FuzzProfile, uav_ids: list[str], horizon: float
    ) -> dict | None:
        """One fault spec; ``None`` when the draw needs an absent shape
        (a partition in a one-UAV fleet). The discarded draws still
        consumed the stream, so determinism is unaffected."""
        kind = str(self._choice(profile.fault_types))
        at = self._uniform(1.0, max(1.5, 0.8 * horizon), ndigits=1)
        spec: dict = {"type": kind, "at": at}
        if kind == "network_partition":
            if len(uav_ids) < 2:
                return None
            split = self._int(1, len(uav_ids) - 1)
            spec["group_a"] = uav_ids[:split]
            spec["group_b"] = uav_ids[split:]
            spec["duration"] = self._uniform(2.0, 30.0, ndigits=1)
            return spec
        spec["uav"] = str(self._choice(uav_ids))
        if kind == "battery_collapse":
            spec["soc_drop_to"] = self._uniform(0.05, 0.6)
        elif kind in ("gps_denial", "comm_blackout"):
            spec["duration"] = self._uniform(2.0, 30.0, ndigits=1)
        elif kind == "gps_spoof":
            spec["offset"] = [
                self._uniform(-60.0, 60.0),
                self._uniform(-60.0, 60.0),
                self._uniform(-10.0, 10.0),
            ]
        elif kind == "camera_degradation":
            spec["rate"] = self._uniform(0.05, 0.9)
        elif kind == "comm_degradation":
            spec["loss"] = self._uniform(0.1, 0.95)
            spec["duration"] = self._uniform(2.0, 30.0, ndigits=1)
        return spec

    # ------------------------------------------------- swarm generation
    def generate_swarm(self, profile: str | FuzzProfile = "hostile") -> dict:
        """One swarm-tasking scenario config drawn from ``profile``.

        The emitted dict feeds :func:`repro.swarm.sim.run_swarm` directly
        (and :func:`repro.harness.oracles.run_swarm_oracles` in the fuzz
        loop). A separate draw sequence from :meth:`generate` — swarm and
        SAR scenarios never share a generator instance in the campaign —
        so extending one format cannot silently reshuffle the other.
        """
        profile = get_profile(profile)
        k = self._int(*profile.swarm_leaders)
        rho = self._int(*profile.swarm_rho)
        dt = 0.5
        horizon_steps = max(
            1,
            int(round(self._uniform(*profile.swarm_horizon_s, ndigits=1) / dt)),
        )
        horizon = round(horizon_steps * dt, 6)
        area = self._uniform(*profile.swarm_area_m, ndigits=0)
        config: dict = {
            "kind": "swarm",
            "description": f"swarm fuzz profile={profile.name} seed={self.seed}",
            "seed": int(self._rng.integers(0, 2**31)),
            "dt": dt,
            "horizon_s": horizon,
            "k_leaders": k,
            "rho": rho,
            "n_pois": self._int(*profile.swarm_pois),
            "area_m": area,
            # Down to half the world side: out-of-range stretches (loss
            # forced to 1.0) are a feature of the tier, not a bug.
            "comm_radius_m": self._uniform(0.5 * area, 1.5 * area, ndigits=0),
            "link_loss": self._uniform(*profile.swarm_loss),
            "task_timeout_s": self._uniform(20.0, 90.0, ndigits=1),
            "follower_dead_after_s": self._uniform(20.0, 60.0, ndigits=1),
        }
        faults = []
        for _ in range(self._int(0, profile.swarm_max_faults)):
            at = self._uniform(1.0, max(1.5, 0.8 * horizon), ndigits=1)
            # Gate first, members after — same stream discipline as the
            # SAR fault draw.
            if self._chance(0.5) and rho > 0:
                uav = f"f{self._int(0, k - 1):02d}_{self._int(0, rho - 1):02d}"
                faults.append({"type": "follower_loss", "uav": uav, "at": at})
            else:
                uav = f"lead{self._int(0, k - 1):02d}"
                faults.append({"type": "leader_demotion", "uav": uav, "at": at})
        config["faults"] = faults
        return config


def scenario_to_json(config: dict) -> str:
    """Canonical scenario serialisation: sorted keys, 2-space indent."""
    return json.dumps(config, indent=2, sort_keys=True) + "\n"
