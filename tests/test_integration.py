"""Integration tests: the full stack wired together.

These exercise the end-to-end flows the paper demonstrates on its
platform: a complete SAR mission with EDDIs attached to every UAV and
the spoofing-detection-to-collaborative-landing response chain.
"""


import numpy as np

from repro.core.decider import MissionDecider, MissionVerdict
from repro.core.eddi import Eddi, MonitorAdapter
from repro.core.uav_network import UavConSertNetwork, UavGuarantee
from repro.experiments.common import build_three_uav_world
from repro.localization.collaborative import CollaborativeLocalizer, Sighting
from repro.localization.detection import DroneDetector
from repro.localization.landing import GuidedLandingController
from repro.middleware.attacks import SpoofingAttack
from repro.platform.database import DatabaseManager
from repro.platform.task_manager import TaskManager
from repro.platform.uav_manager import UavManager
from repro.sar.mission import SarMission
from repro.security.attack_trees import ros_spoofing_attack_tree
from repro.security.broker import MqttBroker
from repro.security.eddi import SecurityEddi
from repro.security.ids import IntrusionDetectionSystem
from repro.safedrones.monitor import SafeDronesMonitor


class TestFullPlatformMission:
    def test_sar_mission_through_platform_services(self):
        scenario = build_three_uav_world(seed=1, n_persons=5)
        world = scenario.world
        db = DatabaseManager()
        manager = UavManager(bus=world.bus, database=db)
        for uav in world.uavs.values():
            manager.connect(uav)
        tasks = TaskManager(uav_manager=manager)
        tasks.execute(
            "sar_coverage",
            {"area_size_m": world.area_size_m, "altitude_m": 20.0},
        )
        mission = SarMission(world=world, altitude_m=20.0)
        mission.metrics.started_at = world.time
        while not mission.mission_complete and world.time < 1500.0:
            mission.step()
        assert mission.mission_complete
        assert mission.metrics.find_rate > 0.4
        # The platform recorded locations for every UAV.
        for uav_id in world.uavs:
            assert db.get("uav_locations", uav_id) is not None

    def test_eddi_fleet_with_mission_decider(self):
        scenario = build_three_uav_world(seed=2, n_persons=0)
        world = scenario.world
        decider = MissionDecider()
        eddis = {}
        monitors = {}
        for uav_id, uav in world.uavs.items():
            network = UavConSertNetwork(uav_id=uav_id)
            network.set_reliability_level("high")
            decider.add_uav(network)
            monitor = SafeDronesMonitor(uav_id=uav_id)
            monitors[uav_id] = monitor

            def make_adapter(u=uav, n=network, m=monitor):
                def update(now):
                    assessment = m.update(now, u.battery.soc, u.battery.temp_c)
                    n.set_reliability_level(assessment.level.value)
                    n.set_gps_quality_ok(
                        u.sensors.gps.measure(u.dynamics.position, now).quality_ok
                    )
                return update

            eddi = Eddi(name=f"{uav_id}-eddi", network=network)
            eddi.add_adapter(MonitorAdapter("safedrones", make_adapter()))
            eddis[uav_id] = eddi

        # Healthy fleet -> AS_PLANNED.
        for uav in world.uavs.values():
            uav.start_mission([(50.0, 50.0, 20.0), (100.0, 50.0, 20.0)])
        for _ in range(20):
            world.step()
            for eddi in eddis.values():
                eddi.step(world.time)
        assert decider.decide().verdict is MissionVerdict.AS_PLANNED

        # Degrade one UAV's battery catastrophically.
        world.uavs["uav1"].battery.soc = 0.08
        world.uavs["uav1"].battery.temp_c = 95.0
        for _ in range(600):
            world.step()
            for eddi in eddis.values():
                eddi.step(world.time)
            if eddis["uav1"].current_guarantee in (
                UavGuarantee.RETURN_TO_BASE,
                UavGuarantee.EMERGENCY_LAND,
            ):
                break
        assert eddis["uav1"].current_guarantee in (
            UavGuarantee.RETURN_TO_BASE,
            UavGuarantee.EMERGENCY_LAND,
        )
        decision = decider.decide()
        assert decision.verdict is MissionVerdict.REDISTRIBUTE
        assert decision.dropped_uavs == ["uav1"]


class TestSpoofToLandingChain:
    def test_detection_triggers_collaborative_landing(self):
        """The full Fig. 6 -> Fig. 7 response chain, driven by the EDDIs."""
        scenario = build_three_uav_world(seed=5, n_persons=0)
        world = scenario.world
        affected = world.uavs["uav1"]
        assistant = world.uavs["uav2"]
        affected.dynamics.position = (60.0, 80.0, 25.0)
        assistant.dynamics.position = (75.0, 80.0, 30.0)

        broker = MqttBroker()
        ids = IntrusionDetectionSystem(bus=world.bus, broker=broker)
        for node in ("uav1", "uav2", "uav3", "uav_manager", "gcs"):
            ids.register_node(node)
        network = UavConSertNetwork(uav_id="uav1")
        network.set_reliability_level("high")
        security_eddi = SecurityEddi(tree=ros_spoofing_attack_tree(), broker=broker)

        responses = []
        security_eddi.on_critical.append(
            lambda event: responses.append(("cl_triggered", event.stamp))
        )
        world.add_attacker(
            SpoofingAttack(
                bus=world.bus,
                t_start=5.0,
                name="adversary",
                topic="/uav1/pose",
                spoofed_sender="uav1",
                payload_fn=lambda now: {"fake": True},
            )
        )

        detector = DroneDetector(rng=np.random.default_rng(7))
        localizer = CollaborativeLocalizer(target_id="uav1")
        controller = GuidedLandingController(
            uav=affected, landing_point=(50.0, 70.0)
        )
        engaged = False
        while world.time < 300.0:
            world.step()
            ids.scan(world.time)
            if security_eddi.root_achieved and not engaged:
                # ConSert response: revoke GPS, engage CL landing.
                network.set_attack_detected(True)
                affected.sensors.gps.denied = True
                controller.engage(world.time)
                engaged = True
            if engaged:
                assistant.command_guided_setpoint(
                    tuple(
                        p + o
                        for p, o in zip(affected.dynamics.position, (15.0, 0.0, 5.0))
                    )
                )
                detection = detector.observe(
                    "uav2",
                    "uav1",
                    assistant.dynamics.position,
                    affected.dynamics.position,
                    world.time,
                )
                if detection is not None:
                    localizer.add_sighting(
                        Sighting(
                            detection=detection,
                            observer_enu=assistant.dynamics.position,
                        )
                    )
                estimate = localizer.estimate(world.time)
                if estimate is not None:
                    controller.feed_estimate(estimate)
                controller.step(world.time)
                if controller.complete:
                    break

        assert responses, "Security EDDI response never fired"
        assert engaged
        assert controller.complete
        report = controller.report(world.time)
        assert report.final_error_m < 5.0
        # The ConSert now offers collaborative navigation, not GPS.
        assert network.navigation_guarantee() == "collaborative_navigation"
