"""Unit tests for the EDDI runtime loop."""

from repro.core.eddi import Eddi, MonitorAdapter
from repro.core.uav_network import UavConSertNetwork, UavGuarantee


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
