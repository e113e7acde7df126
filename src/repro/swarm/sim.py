"""Closed-loop leader–follower swarm simulation over the degraded bus.

One :class:`SwarmSim` wires the pure protocol
(:mod:`repro.swarm.protocol`) into physics and assurance:

* **Motion** — :class:`~repro.uav.swarm_kinematics.SwarmKinematics`
  moves all K + K·ρ UAVs each tick with one ``np.hypot`` over the fleet;
  everything else is per-UAV Python-float arithmetic, which the target
  and link updates read and write directly: at swarm sizes (at most 136
  UAVs) NumPy's per-call overhead costs more than its vector arithmetic
  saves. Detection keeps one vectorised PoI distance per active leader.
  Leaders fly looping boustrophedon sweeps of their vertical sector
  (:func:`repro.sar.patterns.sector_sweep`); followers chase their
  leader while loitering and fly out to task positions when assigned.
* **Comms** — every leader×follower pair gets its own
  :class:`~repro.middleware.degraded.LinkModel` on a
  :class:`~repro.middleware.degraded.DegradedBus`. Each tick the pair's
  loss probability is set from geometry: in comm radius ⇒ the scenario's
  base loss, out of radius ⇒ 1.0. Everything the protocol suffers —
  retransmits, heartbeat silence, lost hellos — falls out of position.
* **Assurance** — per-squad :class:`~repro.core.squad.SquadConSert`
  evidence is refreshed every ``consert_period_s`` and composed by the
  :class:`~repro.core.squad.SwarmMissionDecider`; a squad evaluating to
  ``squad_lost`` triggers the mission-layer recovery the protocol
  exposes but never decides: demote the leader, transfer its open tasks
  round-robin to surviving leaders, re-home its followers.

Determinism: one root :class:`numpy.random.SeedSequence` spawns the bus
rng, the PoI layout rng, and one rng per link (created in sorted pair
order); every Python-side iteration is sorted; sim time is derived as
``step * dt``. Same config + seed ⇒ byte-identical ledger, so
:meth:`SwarmRun.ledger_fingerprint` doubles as the determinism oracle
used by the property suite and the golden trace.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro import obs
from repro.core.squad import (
    SQUAD_LOST,
    SquadConSert,
    SwarmMissionDecider,
)
from repro.middleware.degraded import DegradedBus, LinkModel
from repro.middleware.rosbus import Message
from repro.sar.patterns import sector_sweep
from repro.swarm.protocol import (
    FollowerProtocol,
    FollowerState,
    LeaderProtocol,
    SwarmLedger,
    SwarmProtocolConfig,
    TaskState,
)
from repro.uav.swarm_kinematics import SwarmKinematics

DEFAULTS: dict[str, Any] = {
    "k_leaders": 2,
    "rho": 3,
    "n_pois": 50,
    "area_m": 600.0,
    "comm_radius_m": 450.0,
    "leader_speed_mps": 12.0,
    "follower_speed_mps": 15.0,
    "detect_radius_m": 40.0,
    "patrol_altitude_m": 60.0,
    "dt": 0.5,
    "horizon_s": 600.0,
    "link_loss": 0.05,
    "link_latency_s": 0.02,
    "link_jitter_s": 0.02,
    "task_timeout_s": 90.0,
    "visit_dwell_s": 2.0,
    "reassign_backoff_s": 5.0,
    "reassign_backoff_max_s": 40.0,
    "follower_dead_after_s": 60.0,
    "heartbeat_s": 5.0,
    "consert_period_s": 5.0,
    "faults": (),
}
"""Scenario knobs; any subset may be overridden by the config dict."""

META_KEYS = frozenset({"seed", "kind", "description"})
"""Top-level keys a scenario file may carry besides :data:`DEFAULTS`."""

FAULT_ROLES = {"follower_loss": "follower", "leader_demotion": "leader"}
"""Each scripted fault type and the role of the UAV it must name."""


@dataclass
class SwarmRun:
    """Everything a finished swarm scenario is measured by."""

    config: dict[str, Any]
    seed: int
    ledger: SwarmLedger
    latency_trace: list[dict[str, Any]]
    decisions: list[dict[str, Any]]
    metrics: dict[str, Any]

    @property
    def ledger_fingerprint(self) -> str:
        return self.ledger.fingerprint()

    def summary(self) -> dict[str, Any]:
        """Flat manifest-friendly record (no full ledger — it can be 4000
        tasks deep; the fingerprint stands in for it)."""
        return dict(self.metrics, ledger_fingerprint=self.ledger_fingerprint)


def _leader_name(k: int) -> str:
    return f"lead{k:02d}"


def _follower_name(k: int, j: int) -> str:
    return f"f{k:02d}_{j:02d}"


def _poi_name(i: int) -> str:
    return f"poi{i:05d}"


def _whole(cfg: dict[str, Any], key: str) -> int:
    """``cfg[key]`` as an int; ``ValueError`` naming ``key`` unless it is whole."""
    value = cfg[key]
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"{key!r} must be a whole number, got {value!r}")


def _checked_faults(
    faults: Any, leaders: list[str], followers: list[str]
) -> list[dict[str, Any]]:
    """The scripted faults in firing order; ``ValueError`` on a malformed one.

    Checked when the swarm is built, so a bad entry fails validation
    instead of surfacing mid-run when (or if) the fault fires.
    """
    if not isinstance(faults, (list, tuple)):
        raise ValueError(f"'faults' must be a list, got {faults!r}")
    members = {"leader": set(leaders), "follower": set(followers)}
    checked = []
    for i, fault in enumerate(faults):
        if not isinstance(fault, dict):
            raise ValueError(f"fault {i}: expected an object, got {fault!r}")
        kind = fault.get("type")
        if not isinstance(kind, str) or kind not in FAULT_ROLES:
            raise ValueError(
                f"fault {i}: 'type' must be one of {sorted(FAULT_ROLES)}, got {kind!r}"
            )
        role = FAULT_ROLES[kind]
        uav = fault.get("uav")
        if not isinstance(uav, str) or uav not in members[role]:
            raise ValueError(f"fault {i}: 'uav' {uav!r} is not a {role} of this swarm")
        at = fault.get("at")
        if isinstance(at, bool) or not isinstance(at, (int, float)) or not math.isfinite(at):
            raise ValueError(f"fault {i}: 'at' must be a finite time, got {at!r}")
        checked.append(dict(fault))
    return sorted(checked, key=lambda f: (float(f["at"]), f["uav"]))


@dataclass
class _MessageCensus:
    """Transport-level message counts by protocol plane (via interceptor)."""

    counts: dict[str, int] = field(
        default_factory=lambda: {"data": 0, "ack": 0, "heartbeat": 0, "control": 0}
    )

    def __call__(self, message: Message) -> Message:
        if message.topic.startswith("/swarm/"):
            parts = message.topic.split("/")
            if parts[2] == "hb":
                self.counts["heartbeat"] += 1
            elif parts[2] == "ctl":
                self.counts["control"] += 1
            elif parts[-1] == "ack":
                self.counts["ack"] += 1
            else:
                self.counts["data"] += 1
        return message

    @property
    def total(self) -> int:
        return sum(self.counts.values())


class SwarmSim:
    """One seeded swarm scenario, steppable tick by tick."""

    def __init__(self, config: dict[str, Any], seed: int = 0) -> None:
        unknown = sorted(set(config) - set(DEFAULTS) - META_KEYS)
        if unknown:
            raise ValueError(f"unknown swarm config key(s): {unknown}")
        cfg = dict(DEFAULTS)
        cfg.update(config)
        self.config = cfg
        self.seed = int(cfg.get("seed", seed))
        self.k = _whole(cfg, "k_leaders")
        self.rho = _whole(cfg, "rho")
        self.n_pois = _whole(cfg, "n_pois")
        if self.k < 1 or self.rho < 0 or self.n_pois < 0:
            raise ValueError("k_leaders >= 1, rho >= 0, n_pois >= 0 required")
        self.area = float(cfg["area_m"])
        self.comm_radius = float(cfg["comm_radius_m"])
        self.detect_radius = float(cfg["detect_radius_m"])
        self.dt = float(cfg["dt"])
        self.horizon_s = float(cfg["horizon_s"])
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise ValueError(f"'dt' must be a positive finite step, got {cfg['dt']!r}")
        if not (self.horizon_s >= 0.0 and math.isfinite(self.horizon_s)):
            raise ValueError(
                f"'horizon_s' must be a non-negative finite time, got {cfg['horizon_s']!r}"
            )
        if not self.comm_radius >= 0.0:
            raise ValueError(
                f"'comm_radius_m' must be non-negative, got {cfg['comm_radius_m']!r}"
            )
        self.consert_period = float(cfg["consert_period_s"])
        self.base_loss = float(cfg["link_loss"])
        self.now = 0.0
        self._step_index = 0

        root = np.random.SeedSequence(self.seed)
        bus_ss, poi_ss, link_ss = root.spawn(3)
        self.bus = DegradedBus(rng=np.random.default_rng(bus_ss))
        self.census = _MessageCensus()
        self.bus.add_interceptor(self.census)

        # Retransmit no sooner than a lossless round trip. The bus is
        # stepped once per tick, so a copy drains at the first tick at or
        # past its worst-case link delay and its ACK takes as long back; a
        # shorter timer resends every reliable message once.
        max_delay = float(cfg["link_latency_s"]) + float(cfg["link_jitter_s"])
        round_trip = 2 * (math.floor(max_delay / self.dt) + 1) * self.dt
        self.protocol_config = SwarmProtocolConfig(
            retry_after_s=round_trip,
            task_timeout_s=float(cfg["task_timeout_s"]),
            reassign_backoff_s=float(cfg["reassign_backoff_s"]),
            reassign_backoff_max_s=float(cfg["reassign_backoff_max_s"]),
            follower_dead_after_s=float(cfg["follower_dead_after_s"]),
            heartbeat_s=float(cfg["heartbeat_s"]),
            visit_dwell_s=float(cfg["visit_dwell_s"]),
        )

        self.leader_names = [_leader_name(k) for k in range(self.k)]
        self.follower_names = [
            _follower_name(k, j) for k in range(self.k) for j in range(self.rho)
        ]
        self._names = self.leader_names + self.follower_names
        self._index = {name: i for i, name in enumerate(self._names)}
        self._faults = _checked_faults(
            cfg["faults"], self.leader_names, self.follower_names
        )

        # PoI field.
        poi_rng = np.random.default_rng(poi_ss)
        self.pois = poi_rng.uniform(0.0, self.area, size=(self.n_pois, 2))
        self.poi_detected = np.zeros(self.n_pois, dtype=bool)
        # The undetected PoIs and their positions, refreshed only on a
        # tick that detects one.
        self._undetected = np.arange(self.n_pois)
        self._undetected_pos = self.pois

        # Patrol sweeps: leader k owns vertical sector k; track spacing at
        # twice the detect radius tiles the strip with detection swath.
        self._waypoints: dict[str, list[tuple[float, float]]] = {}
        self._wp_index: dict[str, int] = {}
        spacing = 2.0 * self.detect_radius
        for k, name in enumerate(self.leader_names):
            wps = sector_sweep(
                self.area, self.k, k, float(cfg["patrol_altitude_m"]), spacing
            )
            self._waypoints[name] = [(e, n) for e, n, _ in wps]
            self._wp_index[name] = 0

        # Kinematics: leaders first, followers after.
        n_total = self.k + self.k * self.rho
        positions = np.zeros((n_total, 2))
        speeds = np.zeros(n_total)
        for name in self.leader_names:
            positions[self._index[name]] = self._waypoints[name][0]
            speeds[self._index[name]] = float(cfg["leader_speed_mps"])
        for k in range(self.k):
            lead_pos = positions[self._index[_leader_name(k)]]
            for j in range(self.rho):
                idx = self._index[_follower_name(k, j)]
                positions[idx] = lead_pos
                speeds[idx] = float(cfg["follower_speed_mps"])
        self.kin = SwarmKinematics(positions, speeds)

        # One LinkModel per leader×follower pair, rngs spawned in sorted
        # pair order so link noise is independent of construction details.
        pairs = sorted(
            (ln, fn) for ln in self.leader_names for fn in self.follower_names
        )
        seeds = link_ss.spawn(len(pairs))
        self._comm_r2 = self.comm_radius * self.comm_radius
        self._links: list[tuple[int, int, LinkModel]] = []
        for (ln, fn), child in zip(pairs, seeds):
            link = LinkModel(
                rng=np.random.default_rng(child),
                loss_probability=self.base_loss,
                latency_s=float(cfg["link_latency_s"]),
                jitter_s=float(cfg["link_jitter_s"]),
            )
            self.bus.set_link(ln, fn, link)
            self._links.append((self._index[ln], self._index[fn], link))

        # Protocol endpoints + assurance plane.
        self.ledger = SwarmLedger()
        self.leaders: dict[str, LeaderProtocol] = {}
        self.followers: dict[str, FollowerProtocol] = {}
        self.squads: dict[str, SquadConSert] = {}
        self.planned: dict[str, int] = {}
        self.decider = SwarmMissionDecider()
        for k, name in enumerate(self.leader_names):
            members = [_follower_name(k, j) for j in range(self.rho)]
            self.leaders[name] = LeaderProtocol(
                self.bus, name, members, self.ledger,
                config=self.protocol_config, now=0.0,
            )
            squad = SquadConSert(name)
            self.squads[name] = squad
            self.planned[name] = self.rho
            self.decider.add_squad(squad)
            for fid in members:
                self.followers[fid] = FollowerProtocol(
                    self.bus, fid, name, config=self.protocol_config, now=0.0
                )

        self.dead: set[str] = set()
        self.forced_down: set[str] = set()
        self.decisions: list[dict[str, Any]] = []
        self.verdicts: dict[str, int] = {}
        self._next_consert = self.consert_period

    # ------------------------------------------------------------- faults
    def _apply_faults(self, now: float) -> None:
        while self._faults and float(self._faults[0]["at"]) <= now:
            fault = self._faults.pop(0)
            uav = fault["uav"]
            if fault["type"] == "follower_loss":
                self.dead.add(uav)
                self.bus.set_node_down(uav)
                self.kin.clear_target(self._index[uav])
                if obs.OBS.enabled:
                    obs.event(
                        "error", "swarm.sim", "follower_loss",
                        sim_time=now, uav=uav,
                    )
            else:  # leader_demotion; _checked_faults vetted type and uav
                # Not an instant kill: the squad certificate loses its
                # leader_ok evidence and the *decider* orders the recovery
                # at the next ConSert cycle — assurance-driven, as in the
                # paper's demotion flow.
                self.forced_down.add(uav)
                self.kin.clear_target(self._index[uav])
                if obs.OBS.enabled:
                    obs.event(
                        "error", "swarm.sim", "leader_demotion",
                        sim_time=now, uav=uav,
                    )

    # ------------------------------------------------------------- motion
    def _leader_active(self, name: str) -> bool:
        return (
            name not in self.forced_down
            and not self.leaders[name].demoted
        )

    def _update_targets(self, now: float) -> None:
        kin = self.kin
        for idx, name in enumerate(self.leader_names):
            if not self._leader_active(name):
                kin.clear_target(idx)
                continue
            wps = self._waypoints[name]
            if kin.at_target(idx):
                self._wp_index[name] = (self._wp_index[name] + 1) % len(wps)
            kin.set_target(idx, wps[self._wp_index[name]])
        for idx, name in enumerate(self.follower_names, start=self.k):
            if name in self.dead:
                continue
            follower = self.followers[name]
            if follower.state == FollowerState.ENROUTE:
                assert follower.current_pos is not None
                kin.set_target(idx, follower.current_pos)
                if kin.at_target(idx):
                    follower.arrived(now)
                    kin.clear_target(idx)
            elif follower.state == FollowerState.VISITING:
                kin.clear_target(idx)
            else:  # loiter: chase the current leader
                leader = follower.leader
                if self._leader_active(leader):
                    li = self._index[leader]
                    kin.set_target(idx, (kin.x[li], kin.y[li]))
                else:
                    kin.clear_target(idx)

    def _update_links(self) -> None:
        x, y = self.kin.x, self.kin.y
        r2, base_loss = self._comm_r2, self.base_loss
        for li, fi, link in self._links:
            dx = x[fi] - x[li]
            dy = y[fi] - y[li]
            link.loss_probability = base_loss if dx * dx + dy * dy <= r2 else 1.0

    # ---------------------------------------------------------- detection
    def _detect(self, now: float) -> None:
        undetected = self._undetected
        if undetected.size == 0:
            return
        found = False
        for idx, name in enumerate(self.leader_names):
            if not self._leader_active(name):
                continue
            dists = self.kin.distances_from(idx, self._undetected_pos)
            hits = undetected[dists <= self.detect_radius]
            for poi_idx in hits.tolist():
                if self.poi_detected[poi_idx]:
                    continue
                task = self.leaders[name].note_task(
                    _poi_name(poi_idx),
                    (self.pois[poi_idx, 0], self.pois[poi_idx, 1]),
                    now,
                )
                if task is not None:
                    self.poi_detected[poi_idx] = True
                    found = True
        if found:
            self._undetected = np.flatnonzero(~self.poi_detected)
            self._undetected_pos = self.pois[self._undetected]

    # ---------------------------------------------------------- assurance
    def _consert_cycle(self, now: float) -> None:
        with obs.span("swarm.consert_cycle", sim_time=now):
            for squad_id in sorted(self.squads):
                leader = self.leaders[squad_id]
                self.squads[squad_id].update(
                    leader_ok=self._leader_active(squad_id),
                    live_followers=len(leader.roster),
                    planned_followers=self.planned[squad_id],
                )
            if not self.decider.squads:
                return
            decision = self.decider.decide()
            self.verdicts[decision.verdict] = (
                self.verdicts.get(decision.verdict, 0) + 1
            )
            self.decisions.append(dict(decision.to_dict(), t=now))
            if obs.OBS.enabled:
                obs.event(
                    "info", "swarm.decider", "verdict",
                    sim_time=now, verdict=decision.verdict,
                    lost=len(decision.lost_squads),
                )
            for squad_id in decision.lost_squads:
                self._recover_squad(squad_id, decision.tasking_squads, now)

    def _recover_squad(
        self, squad_id: str, survivors: list[str], now: float
    ) -> None:
        leader = self.leaders[squad_id]
        followers, released = leader.demote(now)
        if survivors:
            for i, poi_id in enumerate(released):
                self.leaders[survivors[i % len(survivors)]].accept_task(poi_id)
            alive = [f for f in followers if f not in self.dead]
            for i, fid in enumerate(alive):
                new_leader = survivors[i % len(survivors)]
                self.followers[fid].rehome(new_leader, now)
                self.planned[new_leader] += 1
        # The squad certificate leaves the mission tree: the mission has
        # reconfigured around the loss, so later verdicts rate the
        # surviving composition, not the ghost.
        del self.decider.squads[squad_id]

    # ------------------------------------------------------------- ticking
    def step(self) -> None:
        """Advance the world by one ``dt`` tick."""
        now = (self._step_index + 1) * self.dt
        self._step_index += 1
        self._apply_faults(now)
        self._update_targets(now)
        arrived = self.kin.step(self.dt)
        self.now = now
        self._update_links()
        self.bus.advance_clock(now)
        self._detect(now)
        for idx in arrived:
            if idx < self.k:
                continue
            name = self._names[idx]
            if name in self.dead:
                continue
            follower = self.followers[name]
            if follower.state == FollowerState.ENROUTE:
                follower.arrived(now)
                self.kin.clear_target(idx)
        for name in self.leader_names:
            if self._leader_active(name):
                self.leaders[name].step(now)
        for name in self.follower_names:
            if name not in self.dead:
                self.followers[name].step(now)
        if now + 1e-9 >= self._next_consert:
            self._consert_cycle(now)
            self._next_consert += self.consert_period

    def run(self) -> SwarmRun:
        """Step to the horizon and measure the outcome."""
        n_steps = int(round(self.horizon_s / self.dt))
        with obs.span(
            "swarm.run", k=self.k, rho=self.rho, n_pois=self.n_pois
        ):
            for _ in range(n_steps):
                self.step()
        return self.finalize()

    # ------------------------------------------------------------ results
    def finalize(self) -> SwarmRun:
        """Close the ledger (orphan unserviced work) and compute metrics."""
        now = self.now
        for poi_id in sorted(self.ledger.tasks):
            task = self.ledger.tasks[poi_id]
            if task.state in (TaskState.PENDING, TaskState.ASSIGNED):
                opened = task.open_assignment()
                if opened is not None:
                    opened.t_closed = now
                    opened.outcome = "horizon"
                task.owner = None
                task.state = TaskState.ORPHANED
                task.orphan_reason = (
                    "no_leader" if task.leader is None else "horizon"
                )

        serviced = self.ledger.in_state(TaskState.SERVICED)
        latency_trace = [
            {
                "poi": t.poi_id,
                "t_detected": t.t_detected,
                "t_serviced": t.t_serviced,
                "latency_s": t.service_latency_s,
            }
            for t in serviced
        ]
        latencies = np.array([t["latency_s"] for t in latency_trace])

        leader_counters: dict[str, int] = {}
        for name in self.leader_names:
            for key, value in self.leaders[name].counters.items():
                leader_counters[key] = leader_counters.get(key, 0) + value
        follower_counters: dict[str, int] = {}
        for name in self.follower_names:
            for key, value in self.followers[name].counters.items():
                follower_counters[key] = follower_counters.get(key, 0) + value

        detected = int(self.poi_detected.sum())
        metrics: dict[str, Any] = {
            "k_leaders": self.k,
            "rho": self.rho,
            "n_pois": self.n_pois,
            "horizon_s": self.horizon_s,
            "detected": detected,
            "serviced": len(serviced),
            "orphaned": len(self.ledger.in_state(TaskState.ORPHANED)),
            "detection_fraction": (
                detected / self.n_pois if self.n_pois else 0.0
            ),
            "coverage_fraction": (
                len(serviced) / self.n_pois if self.n_pois else 0.0
            ),
            "latency_mean_s": float(latencies.mean()) if serviced else None,
            "latency_p50_s": (
                float(np.percentile(latencies, 50)) if serviced else None
            ),
            "latency_p95_s": (
                float(np.percentile(latencies, 95)) if serviced else None
            ),
            "latency_max_s": float(latencies.max()) if serviced else None,
            "messages": dict(self.census.counts),
            "messages_total": self.census.total,
            "messages_per_service": (
                self.census.total / len(serviced) if serviced else None
            ),
            "leader": dict(sorted(leader_counters.items())),
            "follower": dict(sorted(follower_counters.items())),
            "verdicts": dict(sorted(self.verdicts.items())),
            "squads_lost": sorted(
                s for s in self.squads
                if self.squads[s].evaluate() == SQUAD_LOST
            ),
        }
        return SwarmRun(
            config=dict(self.config),
            seed=self.seed,
            ledger=self.ledger,
            latency_trace=latency_trace,
            decisions=self.decisions,
            metrics=metrics,
        )


def build_swarm(config: dict[str, Any], seed: int = 0) -> SwarmSim:
    """Construct a seeded, steppable swarm scenario."""
    return SwarmSim(config, seed=seed)


def run_swarm(config: dict[str, Any], seed: int = 0) -> SwarmRun:
    """Run one swarm scenario start to finish."""
    return build_swarm(config, seed=seed).run()
