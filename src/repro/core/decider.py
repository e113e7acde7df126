"""Mission-level decider: the Σ node over all UAV ConSerts (Fig. 1).

"At the mission level, a decider is used to propose the outputs of all
UAVs and determine whether the mission can be fulfilled or if a fallback
like an emergency landing needs to be initiated" — with three mission
guarantees: *mission to be completed as planned*, *task redistribution
needed* (AND redistribute among remaining capable UAVs), and *mission
cannot be fully completed*.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.core.uav_network import UavConSertNetwork, UavGuarantee

CAPABLE = {
    UavGuarantee.CONTINUE_MISSION_EXTRA,
    UavGuarantee.CONTINUE_MISSION,
}
"""UAV guarantees that count as mission-capable."""


class MissionVerdict(enum.Enum):
    """Mission ConSert guarantee vocabulary."""

    AS_PLANNED = "mission_completed_as_planned"
    REDISTRIBUTE = "task_redistribution_needed"
    CANNOT_COMPLETE = "mission_cannot_be_fully_completed"


@dataclass(frozen=True)
class MissionDecision:
    """One decider output."""

    verdict: MissionVerdict
    uav_guarantees: dict[str, UavGuarantee]
    capable_uavs: list[str]
    takeover_uavs: list[str]
    dropped_uavs: list[str]


def mission_decision(guarantees: dict[str, UavGuarantee]) -> MissionDecision:
    """The Σ rule over every UAV's top-level guarantee.

    If all UAVs can continue: mission as planned. If some UAVs dropped out
    but the remaining fleet includes spare capacity (UAVs offering the
    "can take over additional tasks" guarantee) for every dropped UAV's
    workload: redistribute. Otherwise the mission cannot be fully
    completed with the current fleet.
    """
    capable = [u for u, g in guarantees.items() if g in CAPABLE]
    takeover = [
        u for u, g in guarantees.items() if g is UavGuarantee.CONTINUE_MISSION_EXTRA
    ]
    dropped = [u for u, g in guarantees.items() if g not in CAPABLE]

    if not dropped:
        verdict = MissionVerdict.AS_PLANNED
    elif capable and len(takeover) >= len(dropped):
        verdict = MissionVerdict.REDISTRIBUTE
    else:
        verdict = MissionVerdict.CANNOT_COMPLETE

    return MissionDecision(
        verdict=verdict,
        uav_guarantees=guarantees,
        capable_uavs=capable,
        takeover_uavs=takeover,
        dropped_uavs=dropped,
    )


@dataclass
class MissionDecider:
    """Combines every UAV's top-level guarantee into a mission verdict
    (:func:`mission_decision`)."""

    networks: dict[str, UavConSertNetwork] = field(default_factory=dict)

    def add_uav(self, network: UavConSertNetwork) -> None:
        """Register one UAV's ConSert network."""
        self.networks[network.uav_id] = network

    def decide(self) -> MissionDecision:
        """Evaluate all UAV networks and produce the mission verdict."""
        if not self.networks:
            raise RuntimeError("no UAVs registered with the decider")
        return mission_decision(
            {uav_id: network.evaluate() for uav_id, network in self.networks.items()}
        )
