"""Unit tests for the EDDI runtime loop, ODE packaging, assurance cases."""

import json

import pytest

from repro.core.conserts import AndNode, ConSert, Guarantee, RuntimeEvidence
from repro.core.eddi import Eddi, MonitorAdapter
from repro.core.ode import OdePackage, consert_from_dict, conserts_to_dict
from repro.core.uav_network import UavConSertNetwork, UavGuarantee
from repro.security.attack_trees import ros_spoofing_attack_tree


def make_eddi():
    network = UavConSertNetwork(uav_id="uav1")
    network.set_reliability_level("high")
    return Eddi(name="uav1-eddi", network=network), network


class TestEddiRuntime:
    def test_step_runs_adapters_then_evaluates(self):
        eddi, network = make_eddi()
        calls = []
        eddi.add_adapter(MonitorAdapter("m", lambda now: calls.append(now)))
        guarantee = eddi.step(1.0)
        assert calls == [1.0]
        assert guarantee is UavGuarantee.CONTINUE_MISSION_EXTRA

    def test_adapter_can_change_evidence(self):
        eddi, network = make_eddi()
        eddi.add_adapter(
            MonitorAdapter(
                "rel",
                lambda now: network.set_reliability_level(
                    "medium" if now > 5.0 else "high"
                ),
            )
        )
        assert eddi.step(1.0) is UavGuarantee.CONTINUE_MISSION_EXTRA
        assert eddi.step(6.0) is UavGuarantee.CONTINUE_MISSION

    def test_response_fires_on_change_only(self):
        eddi, network = make_eddi()
        fired = []
        eddi.on_guarantee(UavGuarantee.RETURN_TO_BASE, fired.append)
        eddi.step(1.0)
        network.set_reliability_level("low")
        eddi.step(2.0)
        eddi.step(3.0)  # unchanged -> no second firing
        assert len(fired) == 1
        assert fired[0].guarantee is UavGuarantee.RETURN_TO_BASE
        assert fired[0].previous is UavGuarantee.CONTINUE_MISSION_EXTRA

    def test_response_log_records_transitions(self):
        eddi, network = make_eddi()
        eddi.step(1.0)
        network.set_reliability_level("medium")
        eddi.step(2.0)
        network.set_reliability_level("high")
        eddi.step(3.0)
        assert [r.guarantee for r in eddi.response_log] == [
            UavGuarantee.CONTINUE_MISSION_EXTRA,
            UavGuarantee.CONTINUE_MISSION,
            UavGuarantee.CONTINUE_MISSION_EXTRA,
        ]

    def test_time_in_guarantee(self):
        eddi, network = make_eddi()
        for t in range(0, 10):
            eddi.step(float(t))
        network.set_reliability_level("medium")
        for t in range(10, 15):
            eddi.step(float(t))
        assert eddi.time_in_guarantee(UavGuarantee.CONTINUE_MISSION_EXTRA) == pytest.approx(10.0)
        assert eddi.time_in_guarantee(UavGuarantee.CONTINUE_MISSION) == pytest.approx(4.0)


class TestOdePackage:
    def simple_consert(self):
        return ConSert(
            name="c",
            guarantees=[
                Guarantee("ok", AndNode([RuntimeEvidence("e", False, "desc")])),
                Guarantee("fallback", None),
            ],
        )

    def test_consert_roundtrip(self):
        original = self.simple_consert()
        data = conserts_to_dict(original)
        rebuilt = consert_from_dict(data)
        assert rebuilt.name == "c"
        assert rebuilt.guarantee_names() == ["ok", "fallback"]
        # Evidence defaults to False; the default guarantee is offered.
        assert rebuilt.evaluate().name == "fallback"
        rebuilt.evidence_by_name("e").set(True)
        assert rebuilt.evaluate().name == "ok"

    def test_package_json_roundtrip(self):
        package = OdePackage(system_name="uav", metadata={"author": "sesame"})
        package.add_consert(self.simple_consert())
        package.add_attack_tree(ros_spoofing_attack_tree())
        restored = OdePackage.from_json(package.to_json())
        assert restored.system_name == "uav"
        assert restored.metadata["author"] == "sesame"
        assert len(restored.conserts) == 1
        trees = restored.instantiate_attack_trees()
        assert trees[0].name == "ros_message_spoofing"

    def test_package_json_is_valid_json(self):
        package = OdePackage(system_name="uav")
        package.add_consert(self.simple_consert())
        parsed = json.loads(package.to_json())
        assert parsed["system"] == "uav"

    def test_demand_rebinding_across_package(self):
        provider = ConSert(
            name="provider",
            guarantees=[Guarantee("service_ok", None)],
        )
        from repro.core.conserts import Demand

        consumer = ConSert(
            name="consumer",
            guarantees=[
                Guarantee(
                    "ok",
                    AndNode(
                        [Demand("d", frozenset({"service_ok"}), providers=[provider])]
                    ),
                ),
                Guarantee("fallback", None),
            ],
        )
        package = OdePackage(system_name="s")
        package.add_consert(provider)
        package.add_consert(consumer)
        instantiated = OdePackage.from_json(package.to_json()).instantiate_conserts()
        assert instantiated["consumer"].evaluate().name == "ok"

    def test_full_uav_network_serialises(self):
        network = UavConSertNetwork(uav_id="uav1")
        package = OdePackage(system_name="uav1")
        for consert in (
            network.security,
            network.gps_localization,
            network.vision_health,
            network.vision_localization,
            network.comm_localization,
            network.drone_detection,
            network.reliability,
            network.navigation,
            network.uav,
        ):
            package.add_consert(consert)
        restored = OdePackage.from_json(package.to_json()).instantiate_conserts()
        assert len(restored) == 9
        # Default evidence is False -> the rebuilt top-level UAV ConSert
        # falls back to emergency landing, its unconditional default.
        assert restored["uav1/uav"].evaluate().name == "emergency_land"
