"""Targeted tests for remaining coverage gaps across the library."""

from repro.__main__ import main as cli_main
from repro.core.ode import consert_from_dict, conserts_to_dict
from repro.core.conserts import AndNode, ConSert, Demand, Guarantee


class TestOdeUnboundProviders:
    def test_unknown_provider_left_unbound(self):
        provider = ConSert("elsewhere", guarantees=[Guarantee("ok", None)])
        consumer = ConSert(
            "consumer",
            guarantees=[
                Guarantee(
                    "go",
                    AndNode(
                        [Demand("d", frozenset({"ok"}), providers=[provider])]
                    ),
                ),
                Guarantee("stop", None),
            ],
        )
        data = conserts_to_dict(consumer)
        # Rebuild WITHOUT the provider in scope: the demand must survive
        # unbound (integrator binds it later), falling back meanwhile.
        rebuilt = consert_from_dict(data, providers={})
        assert rebuilt.evaluate().name == "stop"
        demand = rebuilt.demand_nodes()[0]
        assert demand.providers == []
        # Late binding restores the strong guarantee.
        demand.bind(provider)
        assert rebuilt.evaluate().name == "go"


class TestCliExperimentPaths:
    def test_sar_accuracy_command(self, capsys):
        assert cli_main(["sar-accuracy"]) == 0
        out = capsys.readouterr().out
        assert "uncertainty high/final" in out
        assert "0.99" in out

    def test_fig6_command(self, capsys):
        assert cli_main(["fig6"]) == 0
        out = capsys.readouterr().out
        assert "max trajectory deviation" in out
        assert "Security EDDI latency" in out

    def test_seed_override(self, capsys):
        assert cli_main(["fig7", "--seed", "17"]) == 0
        out = capsys.readouterr().out
        assert "landing error" in out


class TestWebApiLogFeed:
    def test_log_feed_with_entries(self):
        from repro.experiments.common import build_three_uav_world
        from repro.platform.api import WebApi
        from repro.platform.database import DatabaseManager
        from repro.platform.gcs import GroundControlStation
        from repro.platform.uav_manager import UavManager

        scenario = build_three_uav_world(seed=1, n_persons=0)
        world = scenario.world
        manager = UavManager(bus=world.bus, database=DatabaseManager())
        gcs = GroundControlStation(bus=world.bus, uav_manager=manager)
        gcs.log(1.0, "uav1", "warning", "battery low: 20%")
        gcs.log(2.0, "gcs", "critical", "spoofing detected")
        api = WebApi(uav_manager=manager, gcs=gcs)
        feed = api.log_feed()["logs"]
        assert len(feed) == 2
        assert feed[-1]["level"] == "critical"

    def test_feeds_empty_without_components(self):
        from repro.experiments.common import build_three_uav_world
        from repro.platform.api import WebApi
        from repro.platform.database import DatabaseManager
        from repro.platform.uav_manager import UavManager

        scenario = build_three_uav_world(seed=1, n_persons=0)
        manager = UavManager(bus=scenario.world.bus, database=DatabaseManager())
        api = WebApi(uav_manager=manager)
        assert api.log_feed() == {"logs": []}
        assert api.alert_feed() == {"alerts": []}
        assert api.tracks() == {"tracks": {}}
