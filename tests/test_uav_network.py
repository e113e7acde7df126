"""Unit tests for the Fig. 1 per-UAV ConSert network and mission decider."""

import pytest

from repro.core.decider import MissionDecider, MissionVerdict
from repro.core.uav_network import UavConSertNetwork, UavGuarantee


@pytest.fixture
def net():
    network = UavConSertNetwork(uav_id="uav1")
    # All-healthy defaults.
    network.set_reliability_level("high")
    return network


class TestUavNetwork:
    def test_healthy_uav_offers_extra_capacity(self, net):
        assert net.evaluate() is UavGuarantee.CONTINUE_MISSION_EXTRA
        assert net.navigation_guarantee() == "high_performance_navigation"

    def test_attack_revokes_gps_navigation(self, net):
        net.set_attack_detected(True)
        assert net.navigation_guarantee() == "collaborative_navigation"

    def test_attack_plus_no_neighbors_falls_to_assistant_or_vision(self, net):
        net.set_attack_detected(True)
        net.set_nearby_uavs_available(False)
        assert net.navigation_guarantee() in ("assistant_navigation", "vision_navigation")

    def test_total_navigation_loss_defaults_to_emergency(self, net):
        net.set_attack_detected(True)
        net.set_nearby_uavs_available(False)
        net.set_camera_healthy(False)
        assert net.navigation_guarantee() == "navigation_unavailable"
        assert net.evaluate() is UavGuarantee.EMERGENCY_LAND

    def test_medium_reliability_continues_without_extra(self, net):
        net.set_reliability_level("medium")
        assert net.evaluate() is UavGuarantee.CONTINUE_MISSION

    def test_low_reliability_returns_to_base(self, net):
        net.set_reliability_level("low")
        assert net.evaluate() is UavGuarantee.RETURN_TO_BASE

    def test_low_reliability_no_nav_emergency_lands(self, net):
        net.set_reliability_level("low")
        net.set_gps_quality_ok(False)
        net.set_nearby_uavs_available(False)
        net.set_camera_healthy(False)
        assert net.evaluate() is UavGuarantee.EMERGENCY_LAND

    def test_degraded_navigation_downgrades_mission_capacity(self, net):
        # GPS lost, CL unavailable, vision still fine -> can continue but
        # not take extra tasks (vision is not precise navigation).
        net.set_gps_quality_ok(False)
        net.set_nearby_uavs_available(False)
        assert net.evaluate() is UavGuarantee.CONTINUE_MISSION

    def test_safeml_low_confidence_disables_vision_localization(self, net):
        net.set_gps_quality_ok(False)
        net.set_comm_links_ok(False)
        net.set_drone_detection_ok(False)
        net.set_safeml_confidence_ok(False)
        assert net.navigation_guarantee() == "navigation_unavailable"

    def test_camera_failure_disables_vision_and_assistant(self, net):
        net.set_gps_quality_ok(False)
        net.set_comm_links_ok(False)
        net.set_camera_healthy(False)
        assert net.navigation_guarantee() == "navigation_unavailable"

    def test_invalid_reliability_level_rejected(self, net):
        with pytest.raises(ValueError):
            net.set_reliability_level("excellent")

    def test_hold_position_band(self, net):
        # Medium reliability, no navigation but camera alive -> hold.
        net.set_reliability_level("medium")
        net.set_gps_quality_ok(False)
        net.set_nearby_uavs_available(False)
        net.set_safeml_confidence_ok(False)
        net.set_drone_detection_ok(False)
        assert net.evaluate() is UavGuarantee.HOLD_POSITION


NETWORK_CONSERTS = [
    "security",
    "gps_localization",
    "vision_health",
    "vision_localization",
    "comm_localization",
    "drone_detection",
    "reliability",
    "navigation",
    "uav",
]


def set_all_evidence(network, value):
    for name in NETWORK_CONSERTS:
        for evidence in getattr(network, name).evidence_nodes():
            evidence.set(value)


class TestNetworkExtremes:
    """Every ConSert of Fig. 1 at all-pessimistic and all-healthy evidence."""

    @pytest.mark.parametrize("consert", NETWORK_CONSERTS)
    def test_no_evidence_falls_back_to_the_unconditional_default(self, consert):
        network = UavConSertNetwork(uav_id="uav1")
        set_all_evidence(network, False)
        certificate = getattr(network, consert)
        assert certificate.guarantees[-1].condition is None
        assert certificate.evaluate() is certificate.guarantees[-1]

    @pytest.mark.parametrize("consert", NETWORK_CONSERTS)
    def test_all_evidence_offers_the_strongest_guarantee(self, consert):
        network = UavConSertNetwork(uav_id="uav1")
        set_all_evidence(network, True)
        certificate = getattr(network, consert)
        assert certificate.evaluate() is certificate.guarantees[0]

    def test_extremes_span_the_flight_decisions(self):
        network = UavConSertNetwork(uav_id="uav1")
        set_all_evidence(network, False)
        assert network.evaluate() is UavGuarantee.EMERGENCY_LAND
        set_all_evidence(network, True)
        assert network.evaluate() is UavGuarantee.CONTINUE_MISSION_EXTRA


def fleet(n=3):
    decider = MissionDecider()
    networks = []
    for i in range(n):
        network = UavConSertNetwork(uav_id=f"uav{i + 1}")
        network.set_reliability_level("high")
        decider.add_uav(network)
        networks.append(network)
    return decider, networks


class TestMissionDecider:
    def test_all_healthy_as_planned(self):
        decider, _ = fleet()
        decision = decider.decide()
        assert decision.verdict is MissionVerdict.AS_PLANNED
        assert decision.dropped_uavs == []

    def test_one_dropout_with_spare_capacity_redistributes(self):
        decider, networks = fleet()
        networks[0].set_reliability_level("low")
        decision = decider.decide()
        assert decision.verdict is MissionVerdict.REDISTRIBUTE
        assert decision.dropped_uavs == ["uav1"]
        assert set(decision.takeover_uavs) == {"uav2", "uav3"}

    def test_redistribution_plan_assigns_dropped_to_takeover(self):
        decider, networks = fleet()
        networks[0].set_reliability_level("low")
        decider.decide()
        plan = decider.redistribution_plan()
        assert set(plan) == {"uav1"}
        assert plan["uav1"] in ("uav2", "uav3")

    def test_no_spare_capacity_cannot_complete(self):
        decider, networks = fleet()
        networks[0].set_reliability_level("low")
        for network in networks[1:]:
            network.set_reliability_level("medium")  # capable but no spare
        decision = decider.decide()
        assert decision.verdict is MissionVerdict.CANNOT_COMPLETE

    def test_all_dropped_cannot_complete(self):
        decider, networks = fleet()
        for network in networks:
            network.set_reliability_level("low")
        assert decider.decide().verdict is MissionVerdict.CANNOT_COMPLETE

    def test_more_dropped_than_takeover(self):
        decider, networks = fleet(3)
        networks[0].set_reliability_level("low")
        networks[1].set_reliability_level("low")
        decision = decider.decide()
        # Two dropped, one takeover-capable -> cannot complete fully.
        assert decision.verdict is MissionVerdict.CANNOT_COMPLETE

    def test_empty_decider_raises(self):
        with pytest.raises(RuntimeError):
            MissionDecider().decide()

    def test_plan_requires_redistribute_verdict(self):
        decider, _ = fleet()
        decider.decide()
        with pytest.raises(RuntimeError):
            decider.redistribution_plan()

    def test_plan_requires_prior_decision(self):
        decider, _ = fleet()
        with pytest.raises(RuntimeError):
            decider.redistribution_plan()

    def test_history_accumulates(self):
        decider, networks = fleet()
        decider.decide()
        networks[0].set_reliability_level("low")
        decider.decide()
        assert len(decider.history) == 2
        assert decider.history[0].verdict is MissionVerdict.AS_PLANNED
        assert decider.history[1].verdict is MissionVerdict.REDISTRIBUTE
