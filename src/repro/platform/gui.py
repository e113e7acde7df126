"""Lightweight status rendering — the platform's GUI layer.

The paper's web GUI shows "operations, positions, and video feeds"; the
control GUI adds task assignment. In this reproduction the GUI layer is a
pair of pure text renderers over the same data the real panels display
(Fig. 4's blue status boxes and the red SESAME output box), keeping the
layer "lightweight in processing" as the paper requires.
"""

from __future__ import annotations

from repro.core.decider import MissionDecision
from repro.platform.uav_manager import UavRecord


def render_fleet_status(records: list[UavRecord]) -> str:
    """Render the per-UAV status boxes as a fixed-width table."""
    header = f"{'UAV':<10} {'TYPE':<14} {'MODE':<16} {'BATT':>6} {'EAST':>8} {'NORTH':>8} {'ALT':>6}"
    lines = [header, "-" * len(header)]
    for record in records:
        east, north, alt = record.position_enu
        lines.append(
            f"{record.uav_id:<10} {record.uav_type:<14} {record.mode:<16} "
            f"{record.battery_percent:>5.0f}% {east:>8.1f} {north:>8.1f} {alt:>6.1f}"
        )
    return "\n".join(lines)


def render_mission_panel(decision: MissionDecision) -> str:
    """Render the SESAME output box: mission verdict + per-UAV guarantees."""
    lines = [f"MISSION: {decision.verdict.value}"]
    for uav_id in sorted(decision.uav_guarantees):
        guarantee = decision.uav_guarantees[uav_id]
        marker = "*" if uav_id in decision.dropped_uavs else " "
        lines.append(f" {marker} {uav_id}: {guarantee.value}")
    if decision.dropped_uavs:
        lines.append(f"dropped: {', '.join(sorted(decision.dropped_uavs))}")
    if decision.takeover_uavs:
        lines.append(f"takeover capacity: {', '.join(sorted(decision.takeover_uavs))}")
    return "\n".join(lines)
