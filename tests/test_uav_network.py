"""Unit tests for the Fig. 1 per-UAV ConSert network and mission decider."""

import numpy as np
import pytest

from repro.core.adapters import build_fleet_eddis
from repro.core.decider import MissionDecider, MissionVerdict, mission_decision
from repro.core.uav_network import UavConSertNetwork, UavGuarantee
from repro.geo import EnuFrame, GeoPoint
from repro.sar.coverage import boustrophedon_path, partition_area
from repro.uav.uav import Uav, UavSpec
from repro.uav.world import World


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


#: The ten runtime-evidence inputs of the Fig. 1 network.
FIG1_EVIDENCE = (
    "no_attack_detected",
    "gps_quality_ok",
    "camera_healthy",
    "safeml_confidence_ok",
    "comm_links_ok",
    "nearby_uavs_available",
    "peer_telemetry_fresh",
    "drone_detection_ok",
    "reliability_high",
    "reliability_medium",
)


def fig1_navigation(e: dict[str, bool]) -> str:
    """The navigation guarantee, read off Fig. 1 by hand."""
    camera = e["camera_healthy"]
    if e["gps_quality_ok"] and e["no_attack_detected"]:
        return "high_performance_navigation"
    if e["comm_links_ok"] and e["nearby_uavs_available"] and e["peer_telemetry_fresh"]:
        return "collaborative_navigation"
    if e["drone_detection_ok"] and camera:
        return "assistant_navigation"
    if camera and e["safeml_confidence_ok"]:
        return "vision_navigation"
    return "navigation_unavailable"


def fig1_uav(e: dict[str, bool]) -> UavGuarantee:
    """The UAV-level flight decision, read off Fig. 1 by hand."""
    navigation = fig1_navigation(e)
    precise_nav = navigation in (
        "high_performance_navigation", "collaborative_navigation"
    )
    any_nav = navigation != "navigation_unavailable"
    # The reliability ConSert offers high, else medium, else low; the UAV
    # demands "high" or "high or medium".
    high = e["reliability_high"]
    medium_or_better = high or e["reliability_medium"]
    if high and precise_nav:
        return UavGuarantee.CONTINUE_MISSION_EXTRA
    if medium_or_better and any_nav:
        return UavGuarantee.CONTINUE_MISSION
    if medium_or_better and (any_nav or e["camera_healthy"]):
        return UavGuarantee.HOLD_POSITION
    if any_nav:
        return UavGuarantee.RETURN_TO_BASE
    return UavGuarantee.EMERGENCY_LAND


class TestFig1Exhaustive:
    """All 1,024 evidence assignments against the hand-written Fig. 1."""

    def test_every_assignment_matches_the_hand_reading(self):
        network = UavConSertNetwork(uav_id="uav1")
        nodes = {
            node.name: node
            for name in NETWORK_CONSERTS
            for node in getattr(network, name).evidence_nodes()
        }
        assert set(nodes) == set(FIG1_EVIDENCE)
        seen = set()
        for bits in range(1 << len(FIG1_EVIDENCE)):
            evidence = {
                name: bool(bits >> k & 1) for k, name in enumerate(FIG1_EVIDENCE)
            }
            for name, value in evidence.items():
                nodes[name].set(value)
            assert network.navigation_guarantee() == fig1_navigation(evidence), (
                evidence
            )
            assert network.evaluate() is fig1_uav(evidence), evidence
            seen.add(network.evaluate())
        assert seen == set(UavGuarantee)


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

    def test_each_decision_reads_the_live_networks(self):
        decider, networks = fleet()
        first = decider.decide()
        networks[0].set_reliability_level("low")
        second = decider.decide()
        assert first.verdict is MissionVerdict.AS_PLANNED
        assert second.verdict is MissionVerdict.REDISTRIBUTE
        assert first.uav_guarantees["uav1"] is UavGuarantee.CONTINUE_MISSION_EXTRA
        assert second.uav_guarantees["uav1"] is UavGuarantee.RETURN_TO_BASE


def build_fleet_world(n_uavs: int, seed=0):
    rng = np.random.default_rng(seed)
    world = World(
        frame=EnuFrame(origin=GeoPoint(35.1, 33.4, 0.0)),
        rng=rng,
        area_size_m=(120.0 * n_uavs, 300.0),
    )
    for i in range(n_uavs):
        world.add_uav(
            Uav(
                spec=UavSpec(
                    uav_id=f"uav{i + 1}", base_position=(60.0 + 120.0 * i, -20.0, 0.0)
                ),
                frame=world.frame,
                bus=world.bus,
                rng=rng,
            )
        )
    return world


class TestFleetScale:
    @pytest.mark.parametrize("n_uavs", [6, 10])
    def test_large_fleet_decider(self, n_uavs):
        decider, networks = fleet(n_uavs)
        assert decider.decide().verdict is MissionVerdict.AS_PLANNED
        # Two dropouts with plenty of spare capacity -> redistribute.
        networks[0].set_reliability_level("low")
        networks[1].set_reliability_level("low")
        decision = decider.decide()
        assert decision.verdict is MissionVerdict.REDISTRIBUTE
        assert decision.dropped_uavs == ["uav1", "uav2"]
        assert len(decision.takeover_uavs) == n_uavs - 2

    def test_six_uav_world_steps(self):
        world = build_fleet_world(6, seed=9)
        strips = partition_area(world.area_size_m, 6)
        for (uav_id, uav), bounds in zip(sorted(world.uavs.items()), strips):
            uav.start_mission(boustrophedon_path(bounds, 20.0))
        fleet_eddis = build_fleet_eddis(world, cl_range_m=250.0)
        for _ in range(40):
            world.step()
            for eddi, _ in fleet_eddis.values():
                eddi.step(world.time)
        guarantees = {
            uav_id: eddi.current_guarantee for uav_id, (eddi, _) in fleet_eddis.items()
        }
        assert all(
            g is UavGuarantee.CONTINUE_MISSION_EXTRA for g in guarantees.values()
        )


#: Every split of a 1- to 4-UAV fleet into (takeover-capable, capable,
#: dropped) counts: the Σ rule depends on nothing else.
FLEET_SPLITS = [
    (extra, cont, n - extra - cont)
    for n in range(1, 5)
    for extra in range(n + 1)
    for cont in range(n - extra + 1)
]
DROPPED_GUARANTEES = [
    UavGuarantee.HOLD_POSITION,
    UavGuarantee.RETURN_TO_BASE,
    UavGuarantee.EMERGENCY_LAND,
]


class TestMissionDecisionRule:
    @pytest.mark.parametrize(
        "extra, cont, dropped", FLEET_SPLITS,
        ids=[f"extra{e}-cont{c}-dropped{d}" for e, c, d in FLEET_SPLITS],
    )
    def test_verdict_follows_the_fig1_rule(self, extra, cont, dropped):
        offers = (
            [UavGuarantee.CONTINUE_MISSION_EXTRA] * extra
            + [UavGuarantee.CONTINUE_MISSION] * cont
            + [DROPPED_GUARANTEES[i % 3] for i in range(dropped)]
        )
        guarantees = {f"uav{i + 1}": g for i, g in enumerate(offers)}
        decision = mission_decision(guarantees)
        if dropped == 0:
            expected = MissionVerdict.AS_PLANNED
        elif extra >= dropped:
            expected = MissionVerdict.REDISTRIBUTE
        else:
            expected = MissionVerdict.CANNOT_COMPLETE
        assert decision.verdict is expected
        assert len(decision.takeover_uavs) == extra
        assert len(decision.capable_uavs) == extra + cont
        assert decision.dropped_uavs == [f"uav{i + 1}" for i in range(extra + cont, len(offers))]

