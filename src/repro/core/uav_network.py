"""The Fig. 1 hierarchical ConSert network for one UAV.

Encodes the paper's "Overview of hierarchical ConSert UAV network for SAR
mission": per-UAV ConSerts for security, GPS / vision / communication
localization, vision sensor health, nearby-drone detection, SafeDrones
reliability, a navigation ConSert composing the localization services, and
the top-level UAV ConSert whose guarantees are the flight decisions
(continue mission with spare capacity, continue mission, hold position,
return to base / land, default emergency landing).

All runtime evidence has named setter methods so the EDDI layer can wire
live monitors without knowing the tree shapes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, fields

from repro.core.conserts import (
    AndNode,
    ConSert,
    Demand,
    Guarantee,
    OrNode,
    RuntimeEvidence,
)


class UavGuarantee(enum.Enum):
    """Top-level UAV ConSert guarantee vocabulary (Fig. 1)."""

    CONTINUE_MISSION_EXTRA = "continue_mission_extra_tasks"
    CONTINUE_MISSION = "continue_mission"
    HOLD_POSITION = "hold_position"
    RETURN_TO_BASE = "return_to_base"
    EMERGENCY_LAND = "emergency_land"


@dataclass
class UavConSertNetwork:
    """All ConSerts of one UAV, wired per Fig. 1."""

    uav_id: str
    security: ConSert = field(init=False)
    gps_localization: ConSert = field(init=False)
    vision_health: ConSert = field(init=False)
    vision_localization: ConSert = field(init=False)
    comm_localization: ConSert = field(init=False)
    drone_detection: ConSert = field(init=False)
    reliability: ConSert = field(init=False)
    navigation: ConSert = field(init=False)
    uav: ConSert = field(init=False)

    def __post_init__(self) -> None:
        # --- Security EDDI ConSert -------------------------------------
        self._ev_no_attack = RuntimeEvidence(
            "no_attack_detected", True, "Security EDDI reports no active attack"
        )
        self.security = ConSert(
            name=f"{self.uav_id}/security_eddi",
            guarantees=[
                Guarantee("no_attack", AndNode([self._ev_no_attack])),
                Guarantee("attack_detected", None, "default: attack assumed"),
            ],
        )

        # --- GPS-based localization -------------------------------------
        self._ev_gps_quality = RuntimeEvidence(
            "gps_quality_ok", True, "satellites/HDOP within limits"
        )
        self.gps_localization = ConSert(
            name=f"{self.uav_id}/gps_localization",
            guarantees=[
                Guarantee(
                    "gps_localization_ok",
                    AndNode(
                        [
                            self._ev_gps_quality,
                            Demand(
                                "security_clear",
                                frozenset({"no_attack"}),
                                providers=[self.security],
                            ),
                        ]
                    ),
                    "GPS navigation accuracy < 0.5 m",
                ),
                Guarantee("gps_localization_unavailable", None),
            ],
        )

        # --- Vision sensor health ----------------------------------------
        self._ev_camera_ok = RuntimeEvidence("camera_healthy", True)
        self.vision_health = ConSert(
            name=f"{self.uav_id}/vision_sensor_health",
            guarantees=[
                Guarantee("vision_sensor_healthy", AndNode([self._ev_camera_ok])),
                Guarantee("vision_sensor_degraded", None),
            ],
        )

        # --- Vision-based localization (needs healthy camera + SafeML) ---
        self._ev_safeml_ok = RuntimeEvidence(
            "safeml_confidence_ok", True, "perception within training distribution"
        )
        self.vision_localization = ConSert(
            name=f"{self.uav_id}/vision_localization",
            guarantees=[
                Guarantee(
                    "vision_localization_ok",
                    AndNode(
                        [
                            Demand(
                                "camera",
                                frozenset({"vision_sensor_healthy"}),
                                providers=[self.vision_health],
                            ),
                            self._ev_safeml_ok,
                        ]
                    ),
                    "Vision-based navigation accuracy < 1 m",
                ),
                Guarantee("vision_localization_unavailable", None),
            ],
        )

        # --- Communication-based localization -----------------------------
        self._ev_comm_ok = RuntimeEvidence("comm_links_ok", True)
        self._ev_neighbors = RuntimeEvidence(
            "nearby_uavs_available", True, ">=1 collaborator within CL range"
        )
        self._ev_telemetry_fresh = RuntimeEvidence(
            "peer_telemetry_fresh",
            True,
            "peer telemetry received within the staleness window",
        )
        self.comm_localization = ConSert(
            name=f"{self.uav_id}/comm_localization",
            guarantees=[
                Guarantee(
                    "comm_localization_ok",
                    AndNode(
                        [
                            self._ev_comm_ok,
                            self._ev_neighbors,
                            self._ev_telemetry_fresh,
                        ]
                    ),
                    "Collaborative navigation accuracy < 0.75 m",
                ),
                Guarantee("comm_localization_unavailable", None),
            ],
        )

        # --- Vision-based nearby drone detection --------------------------
        self._ev_drone_detect = RuntimeEvidence("drone_detection_ok", True)
        self.drone_detection = ConSert(
            name=f"{self.uav_id}/drone_detection",
            guarantees=[
                Guarantee(
                    "assistant_detection_ok",
                    AndNode(
                        [
                            self._ev_drone_detect,
                            Demand(
                                "camera",
                                frozenset({"vision_sensor_healthy"}),
                                providers=[self.vision_health],
                            ),
                        ]
                    ),
                    "Assistant navigation accuracy < 1 m",
                ),
                Guarantee("assistant_detection_unavailable", None),
            ],
        )

        # --- SafeDrones reliability ---------------------------------------
        self._ev_rel_high = RuntimeEvidence("reliability_high", True)
        self._ev_rel_medium = RuntimeEvidence("reliability_medium", True)
        self.reliability = ConSert(
            name=f"{self.uav_id}/safedrones_reliability",
            guarantees=[
                Guarantee("high_reliability", AndNode([self._ev_rel_high])),
                Guarantee("medium_reliability", AndNode([self._ev_rel_medium])),
                Guarantee("low_reliability", None),
            ],
        )

        # --- Navigation ConSert -------------------------------------------
        def nav_demand(name: str, accepted: str, provider: ConSert) -> Demand:
            return Demand(name, frozenset({accepted}), providers=[provider])

        self.navigation = ConSert(
            name=f"{self.uav_id}/navigation",
            guarantees=[
                Guarantee(
                    "high_performance_navigation",
                    AndNode(
                        [nav_demand("gps", "gps_localization_ok", self.gps_localization)]
                    ),
                    "accuracy < 0.5 m",
                ),
                Guarantee(
                    "collaborative_navigation",
                    AndNode(
                        [
                            nav_demand(
                                "cl", "comm_localization_ok", self.comm_localization
                            )
                        ]
                    ),
                    "accuracy < 0.75 m",
                ),
                Guarantee(
                    "assistant_navigation",
                    AndNode(
                        [
                            nav_demand(
                                "assist",
                                "assistant_detection_ok",
                                self.drone_detection,
                            )
                        ]
                    ),
                    "accuracy < 1 m",
                ),
                Guarantee(
                    "vision_navigation",
                    AndNode(
                        [
                            nav_demand(
                                "vision",
                                "vision_localization_ok",
                                self.vision_localization,
                            )
                        ]
                    ),
                    "accuracy < 1 m",
                ),
                Guarantee("navigation_unavailable", None, "default: emergency landing"),
            ],
        )

        # --- Top-level UAV ConSert ------------------------------------------
        def rel(*accepted: str) -> Demand:
            return Demand(
                "reliability", frozenset(accepted), providers=[self.reliability]
            )

        def nav(*accepted: str) -> Demand:
            return Demand("navigation", frozenset(accepted), providers=[self.navigation])

        precise_nav = ("high_performance_navigation", "collaborative_navigation")
        any_nav = precise_nav + ("assistant_navigation", "vision_navigation")
        self.uav = ConSert(
            name=f"{self.uav_id}/uav",
            guarantees=[
                Guarantee(
                    UavGuarantee.CONTINUE_MISSION_EXTRA.value,
                    AndNode([rel("high_reliability"), nav(*precise_nav)]),
                    "can take over additional tasks",
                ),
                Guarantee(
                    UavGuarantee.CONTINUE_MISSION.value,
                    AndNode(
                        [rel("high_reliability", "medium_reliability"), nav(*any_nav)]
                    ),
                ),
                Guarantee(
                    UavGuarantee.HOLD_POSITION.value,
                    AndNode(
                        [
                            rel("high_reliability", "medium_reliability"),
                            OrNode(
                                [
                                    nav(*any_nav),
                                    Demand(
                                        "camera",
                                        frozenset({"vision_sensor_healthy"}),
                                        providers=[self.vision_health],
                                    ),
                                ]
                            ),
                        ]
                    ),
                    "wait until the critical situation is resolved",
                ),
                Guarantee(
                    UavGuarantee.RETURN_TO_BASE.value,
                    AndNode([nav(*any_nav)]),
                    "abort and return to base",
                ),
                Guarantee(
                    UavGuarantee.EMERGENCY_LAND.value,
                    None,
                    "default: emergency landing",
                ),
            ],
        )

    # ------------------------------------------------------------ setters
    def set_attack_detected(self, detected: bool) -> None:
        """Security EDDI verdict (True = active attack)."""
        self._ev_no_attack.set(not detected)

    def set_gps_quality_ok(self, ok: bool) -> None:
        """GPS satellite-count / HDOP quality gate."""
        self._ev_gps_quality.set(ok)

    def set_camera_healthy(self, healthy: bool) -> None:
        """Vision sensor health state."""
        self._ev_camera_ok.set(healthy)

    def set_safeml_confidence_ok(self, ok: bool) -> None:
        """SafeML perception-confidence gate."""
        self._ev_safeml_ok.set(ok)

    def set_comm_links_ok(self, ok: bool) -> None:
        """Inter-UAV communication link state."""
        self._ev_comm_ok.set(ok)

    def set_nearby_uavs_available(self, available: bool) -> None:
        """Whether >=1 collaborator is within CL range."""
        self._ev_neighbors.set(available)

    def set_peer_telemetry_fresh(self, fresh: bool) -> None:
        """Whether peer telemetry arrived within the staleness window."""
        self._ev_telemetry_fresh.set(fresh)

    def set_drone_detection_ok(self, ok: bool) -> None:
        """Vision-based nearby-drone detection state."""
        self._ev_drone_detect.set(ok)

    def set_reliability_level(self, level: str) -> None:
        """SafeDrones level: 'high' / 'medium' / 'low'."""
        if level not in ("high", "medium", "low"):
            raise ValueError(f"unknown reliability level {level!r}")
        self._ev_rel_high.set(level == "high")
        self._ev_rel_medium.set(level in ("high", "medium"))

    # ---------------------------------------------------------- evaluation
    def conserts(self) -> dict[str, ConSert]:
        """Every ConSert of the network, by field name."""
        return {f.name: getattr(self, f.name) for f in fields(self) if not f.init}

    def evaluate(self) -> UavGuarantee:
        """Evaluate the whole network; returns the UAV-level decision."""
        offered = self.uav.evaluate()
        assert offered is not None  # the default guarantee is unconditional
        return UavGuarantee(offered.name)

    def navigation_guarantee(self) -> str:
        """The navigation-level guarantee currently offered."""
        offered = self.navigation.evaluate()
        assert offered is not None
        return offered.name
