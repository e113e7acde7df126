"""Squad-level ConSerts: hierarchical composition for leader–follower swarms.

The paper's decider (:mod:`repro.core.decider`) composes *UAV* ConSerts
directly into one mission verdict — fine for a flat three-UAV fleet,
but a K×ρ swarm needs an intermediate certificate layer: each squad
(one explorer leader plus its ρ followers) offers its own conditional
guarantee, and the mission decider demands *squad* guarantees instead of
per-UAV ones. That is ConSert composition as Reich et al. intend it —
demands bind to provider certificates — just one level deeper.

Squad guarantee ladder (strongest first):

``squad_tasking_full``
    Leader healthy and every follower alive — full service rate.
``squad_tasking``
    Leader healthy and at least one follower alive — degraded rate.
``squad_patrol_only``
    Leader healthy but no followers — detection continues, visits stall.
``squad_lost`` (default)
    Leader demoted/down: followers must re-home, tasks must transfer.

The mission ConSert then offers ``swarm_as_planned`` (every squad full),
``swarm_tasking_degraded`` (every squad at least tasking),
``swarm_rehome_needed`` (some squad lost but another can still task —
the signal :mod:`repro.swarm.sim` acts on), and the default
``swarm_lost``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.conserts import (
    AndNode,
    ConSert,
    Demand,
    Guarantee,
    OrNode,
    RuntimeEvidence,
)

SQUAD_TASKING_FULL = "squad_tasking_full"
SQUAD_TASKING = "squad_tasking"
SQUAD_PATROL_ONLY = "squad_patrol_only"
SQUAD_LOST = "squad_lost"

TASKING = frozenset({SQUAD_TASKING_FULL, SQUAD_TASKING})
"""Squad guarantees under which the squad still services tasks."""

SWARM_AS_PLANNED = "swarm_as_planned"
SWARM_TASKING_DEGRADED = "swarm_tasking_degraded"
SWARM_REHOME_NEEDED = "swarm_rehome_needed"
SWARM_LOST = "swarm_lost"


class SquadConSert:
    """Conditional safety certificate for one leader + its followers.

    Evidence is fed by the simulation/assurance plane each cycle:
    ``leader_ok`` (the leader is up and not demoted),
    ``followers_available`` (≥ 1 follower heartbeating), and
    ``full_strength`` (the roster matches the planned ρ).
    """

    def __init__(self, squad_id: str) -> None:
        self.squad_id = squad_id
        self.leader_ok = RuntimeEvidence(
            "leader_ok", value=True, description="leader alive and not demoted"
        )
        self.followers_available = RuntimeEvidence(
            "followers_available", value=True, description="at least one live follower"
        )
        self.full_strength = RuntimeEvidence(
            "full_strength", value=True, description="roster at planned strength"
        )
        self.consert = ConSert(
            name=f"squad:{squad_id}",
            guarantees=[
                Guarantee(
                    SQUAD_TASKING_FULL,
                    condition=AndNode([
                        self.leader_ok, self.followers_available, self.full_strength,
                    ]),
                ),
                Guarantee(
                    SQUAD_TASKING,
                    condition=AndNode([self.leader_ok, self.followers_available]),
                ),
                Guarantee(SQUAD_PATROL_ONLY, condition=self.leader_ok),
                Guarantee(SQUAD_LOST),
            ],
        )

    def update(
        self, leader_ok: bool, live_followers: int, planned_followers: int
    ) -> None:
        """Refresh the squad's runtime evidence from observed state."""
        self.leader_ok.set(leader_ok)
        self.followers_available.set(live_followers >= 1)
        self.full_strength.set(live_followers >= planned_followers)

    def evaluate(self) -> str:
        """Name of the strongest satisfiable squad guarantee."""
        guarantee = self.consert.evaluate()
        assert guarantee is not None  # ladder ends in an unconditional default
        return guarantee.name


@dataclass(frozen=True)
class SwarmDecision:
    """One mission-level verdict over all squad certificates."""

    verdict: str
    squad_guarantees: dict[str, str]
    tasking_squads: list[str]
    lost_squads: list[str]

    def to_dict(self) -> dict[str, object]:
        return {
            "verdict": self.verdict,
            "squad_guarantees": dict(sorted(self.squad_guarantees.items())),
            "tasking_squads": list(self.tasking_squads),
            "lost_squads": list(self.lost_squads),
        }


@dataclass
class SwarmMissionDecider:
    """Mission ConSert demanding squad guarantees (the Σ node, one level up).

    Mirrors :class:`repro.core.decider.MissionDecider`, but its demands
    bind to :class:`SquadConSert` providers rather than UAV networks:
    the composition is certificate → certificate. The mission ConSert is
    built once per squad roster and rebuilt only when the roster changes.
    """

    squads: dict[str, SquadConSert] = field(default_factory=dict)
    _roster: tuple = field(default=(), init=False, repr=False, compare=False)
    _mission: ConSert | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def add_squad(self, squad: SquadConSert) -> None:
        self.squads[squad.squad_id] = squad

    def _mission_consert(self) -> ConSert:
        ordered = [self.squads[k] for k in sorted(self.squads)]
        all_full = AndNode([
            Demand(
                f"{s.squad_id}_full",
                accepted_guarantees=frozenset({SQUAD_TASKING_FULL}),
                providers=[s.consert],
            )
            for s in ordered
        ])
        all_tasking = AndNode([
            Demand(
                f"{s.squad_id}_tasking",
                accepted_guarantees=TASKING,
                providers=[s.consert],
            )
            for s in ordered
        ])
        any_tasking = OrNode([
            Demand(
                f"{s.squad_id}_any",
                accepted_guarantees=TASKING,
                providers=[s.consert],
            )
            for s in ordered
        ])
        return ConSert(
            name="swarm-mission",
            guarantees=[
                Guarantee(SWARM_AS_PLANNED, condition=all_full),
                Guarantee(SWARM_TASKING_DEGRADED, condition=all_tasking),
                Guarantee(SWARM_REHOME_NEEDED, condition=any_tasking),
                Guarantee(SWARM_LOST),
            ],
        )

    def decide(self) -> SwarmDecision:
        """Evaluate every squad certificate and produce the swarm verdict."""
        if not self.squads:
            raise RuntimeError("no squads registered with the decider")
        guarantees = {
            squad_id: self.squads[squad_id].evaluate()
            for squad_id in sorted(self.squads)
        }
        roster = tuple(sorted(self.squads.items()))
        if self._mission is None or roster != self._roster:
            self._roster = roster
            self._mission = self._mission_consert()
        mission = self._mission.evaluate()
        assert mission is not None
        return SwarmDecision(
            verdict=mission.name,
            squad_guarantees=guarantees,
            tasking_squads=[s for s, g in guarantees.items() if g in TASKING],
            lost_squads=[s for s, g in guarantees.items() if g == SQUAD_LOST],
        )
