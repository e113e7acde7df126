"""Finished simulations are freed by reference counting, not the cyclic GC.

Nothing a ``World`` or ``SwarmSim`` owns points back to it, and pub/sub
callbacks are torn down with their run (DESIGN.md, "Ownership"). So when
an entry point returns, everything it built dies with its last
reference. A cycle anywhere in that graph would instead keep the whole
world (every tick's messages, telemetry and noise generators) alive until
the next full collection, which costs peak memory and GC time at fleet
scale.

The invariant: under ``gc.DEBUG_SAVEALL``, a second run of each entry
point leaves ``gc.garbage`` empty. (The first run warms lazy imports and
module-level memos.) A failure names the types left to the collector.
The edge tests below check each broken back-reference on its own, with
the collector off, and the retention tests check that the bus itself
keeps no message once ``publish`` returns: a run's traffic lives only
where a subscriber or an interceptor (the IDS is one) stored it.
"""

from __future__ import annotations

import collections
import gc
import json
import weakref
from pathlib import Path

import pytest

from repro.harness.timing import PhaseTimer

SCENARIOS = sorted((Path(__file__).resolve().parents[1] / "scenarios").glob("*.json"))

#: Simulated seconds per ``run_scenario_oracles`` run.
ORACLE_HORIZON_S = 10.0


def _cyclic_garbage(run) -> collections.Counter:
    """Type names of the objects only the cyclic GC frees after ``run()``."""
    run()
    flags = gc.get_debug()
    gc.collect()
    gc.garbage.clear()
    gc.set_debug(flags | gc.DEBUG_SAVEALL)
    try:
        run()
        gc.collect()
        return collections.Counter(type(obj).__qualname__ for obj in gc.garbage)
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()


def _fig5():
    from repro.experiments.fig5_battery import run_fig5_battery_experiment

    run_fig5_battery_experiment()


def _sar_accuracy():
    from repro.experiments.sar_accuracy import run_sar_accuracy_experiment

    run_sar_accuracy_experiment()


def _fig6():
    from repro.experiments.fig6_spoofing import run_fig6_spoofing_experiment

    run_fig6_spoofing_experiment()


def _fig7():
    from repro.experiments.fig7_collab_landing import run_fig7_collaborative_landing

    run_fig7_collaborative_landing()


def _fig4():
    from repro.experiments.fig4_platform import run_fig4_platform_demo

    run_fig4_platform_demo()


def _assurance(n_uavs: int):
    def run():
        from repro.experiments.fleet_scale import run_assurance_scale_point

        run_assurance_scale_point(n_uavs)

    return run


def _planner_ablation():
    from repro.plan.experiment import planner_ablation_grid, planner_ablation_sample

    config = next(c for c in planner_ablation_grid("smoke") if c["strategy"] == "planned")
    planner_ablation_sample(config, 0, PhaseTimer())


def _faulted_swarm_config() -> dict:
    """The swarm-sizing smoke point with a follower loss and a demotion."""
    from repro.swarm.experiment import swarm_sizing_grid

    return next(c for c in swarm_sizing_grid("smoke") if c.get("faults"))


def _swarm_sizing():
    from repro.swarm.experiment import swarm_sizing_sample

    swarm_sizing_sample(_faulted_swarm_config(), 0, PhaseTimer())


def _swarm_oracles():
    from repro.harness.oracles import run_swarm_oracles

    report = run_swarm_oracles(_faulted_swarm_config())
    assert report.violations == []


def _comm():
    from repro.experiments.comm_availability import (
        comm_availability_grid,
        comm_availability_sample,
    )

    comm_availability_sample(comm_availability_grid("smoke")[1], 1, PhaseTimer())


def _scenario_oracles(path: Path):
    config = json.loads(path.read_text())

    def run():
        from repro.harness.oracles import run_scenario_oracles

        report = run_scenario_oracles(config, horizon_s=ORACLE_HORIZON_S)
        assert report.violations == []

    return run


ENTRY_POINTS = {
    "fig5": _fig5,
    "sar-accuracy": _sar_accuracy,
    "fig6": _fig6,
    "fig7": _fig7,
    "fig4": _fig4,
    "assurance-n3": _assurance(3),
    "assurance-n50": _assurance(50),
    "planner-ablation": _planner_ablation,
    "swarm-sizing": _swarm_sizing,
    "swarm-oracles": _swarm_oracles,
    "comm": _comm,
    **{f"scenario-oracles-{path.stem}": _scenario_oracles(path) for path in SCENARIOS},
}


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_entry_point_leaves_no_cyclic_garbage(name):
    garbage = _cyclic_garbage(ENTRY_POINTS[name])
    total = sum(garbage.values())
    assert total == 0, (
        f"{name} left {total} objects to the cyclic GC; top types: "
        f"{garbage.most_common(8)}"
    )


def test_every_scenario_file_is_an_entry_point():
    assert SCENARIOS, "no scenarios/*.json found"


def _freed_by_refcount(build) -> bool:
    """Whether every object ``build()`` returns dies with the last reference."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        refs = [weakref.ref(obj) for obj in build()]
        return all(ref() is None for ref in refs)
    finally:
        if enabled:
            gc.enable()


class TestBrokenEdges:
    """Each back-reference a run used to keep, checked with the GC off."""

    def test_fifty_uav_world_after_a_mission(self):
        from repro.experiments.common import build_three_uav_world
        from repro.sar.mission import SarMission

        def build():
            world = build_three_uav_world(seed=3, n_persons=4, n_uavs=50).world
            assert world.engine == "vectorized"
            mission = SarMission(world=world)
            mission.assign_paths()
            for _ in range(20):
                mission.step()
            return world, world.bus, world._fleet

        assert _freed_by_refcount(build)

    def test_fifty_uav_world_under_the_batched_plane(self):
        from repro.core.batch import build_assurance
        from repro.experiments.common import build_three_uav_world

        def build():
            world = build_three_uav_world(seed=3, n_persons=0, n_uavs=50).world
            plane = build_assurance(world)
            for _ in range(4):
                world.step()
                plane.step(world.time)
                plane.decide()
            return world, world._fleet, plane

        assert _freed_by_refcount(build)

    def test_finished_swarm(self):
        from repro.swarm.sim import build_swarm

        def build():
            sim = build_swarm(_faulted_swarm_config())
            sim.run()
            return (
                sim, sim.bus, *sim.leaders.values(), *sim.followers.values(),
                *(f.channel for f in sim.followers.values()),
            )

        assert _freed_by_refcount(build)

    def test_closed_security_eddi(self):
        from repro.security.attack_trees import ros_spoofing_attack_tree
        from repro.security.broker import MqttBroker
        from repro.security.eddi import SecurityEddi

        def build():
            broker = MqttBroker()
            eddi = SecurityEddi(tree=ros_spoofing_attack_tree(), broker=broker)
            eddi.close()
            assert broker.publish("ids/alerts/message_injection", "alert") == 0
            return eddi, broker

        assert _freed_by_refcount(build)

    def test_closed_platform_services(self):
        from repro.experiments.common import build_three_uav_world
        from repro.platform.database import DatabaseManager
        from repro.platform.recorder import FlightRecorder
        from repro.platform.uav_manager import UavManager

        def build():
            world = build_three_uav_world(seed=3, n_persons=0).world
            manager = UavManager(bus=world.bus, database=DatabaseManager())
            recorder = FlightRecorder(bus=world.bus)
            for uav in world.uavs.values():
                manager.connect(uav)
                recorder.watch(uav.spec.uav_id)
            world.step()
            manager.close()
            recorder.close()
            return world, manager, recorder

        assert _freed_by_refcount(build)

    def test_unsubscribed_bus_subscriber(self):
        from repro.middleware.rosbus import RosBus

        bus = RosBus()
        received = []

        class Listener:
            def on_message(self, message):
                received.append(message)

        def build():
            listener = Listener()
            bus.subscribe("/t", "listener", listener.on_message).unsubscribe()
            return (listener,)

        assert _freed_by_refcount(build)
        bus.publish("/t", 1, sender="x")
        assert received == []

    def test_intrusion_detection_system_and_its_bus(self):
        from repro.middleware.rosbus import RosBus
        from repro.security.broker import MqttBroker
        from repro.security.ids import IntrusionDetectionSystem

        def build():
            bus, broker = RosBus(), MqttBroker()
            ids = IntrusionDetectionSystem(bus=bus, broker=broker)
            bus.publish("/t", 1, sender="uav1", origin="adversary")
            assert ids.scan(0.0)
            return bus, broker, ids

        assert _freed_by_refcount(build)


class _Payload:
    """A weak-referenceable message payload."""

    def __init__(self, odd: bool = False) -> None:
        self.odd = odd


def _rosbus():
    from repro.middleware.rosbus import RosBus

    return RosBus()


def _degraded_bus():
    from repro.middleware.degraded import DegradedBus

    return DegradedBus()


def _publish(bus, items):
    for topic, data, sender in items:
        bus.publish(topic, data, sender)


def _publish_many(bus, items):
    bus.publish_many(items, stamp=bus.clock)


#: Every way a message enters a bus: (bus factory, publish).
PUBLISH_PATHS = {
    "publish": (_rosbus, _publish),
    "publish_many": (_rosbus, _publish_many),
    "degraded-publish": (_degraded_bus, _publish),
}


class TestBusRetention:
    """Once ``publish`` returns, the bus holds no message nobody stored."""

    @pytest.mark.parametrize("path", sorted(PUBLISH_PATHS))
    @pytest.mark.parametrize("subscribed", [False, True], ids=["unsubscribed", "subscribed"])
    def test_unread_payload_is_freed_when_publish_returns(self, path, subscribed):
        make_bus, publish = PUBLISH_PATHS[path]
        bus = make_bus()
        if subscribed:
            bus.subscribe("/t", "reader", lambda message: None)

        def build():
            payload = _Payload()
            publish(bus, [("/t", payload, "uav1")])
            return (payload,)

        assert _freed_by_refcount(build)

    @pytest.mark.parametrize("path", sorted(PUBLISH_PATHS))
    def test_ids_sees_what_passes_the_interceptors_before_it(self, path):
        """In ``seq`` order, as rewritten; drops before it hide a message,
        drops after it do not, and a scan releases what it read."""
        from repro.security.broker import MqttBroker
        from repro.security.ids import IdsRule, IntrusionDetectionSystem

        make_bus, publish = PUBLISH_PATHS[path]
        bus = make_bus()
        received, seen = [], []
        bus.subscribe("/t", "reader", received.append)
        bus.add_interceptor(
            lambda m: None if m.data.odd else m._replace(origin="mitm")
        )
        ids = IntrusionDetectionSystem(
            bus=bus,
            broker=MqttBroker(),
            custom_rules=[IdsRule("record", lambda m: seen.append(m))],
        )
        bus.add_interceptor(lambda m: None)  # installed after the IDS

        payloads = [_Payload(odd=i % 2 == 1) for i in range(6)]
        publish(bus, [("/t", p, "uav1") for p in payloads[:3]])
        ids.scan(0.0)
        publish(bus, [("/t", p, "uav1") for p in payloads[3:]])
        ids.scan(1.0)

        assert received == []
        assert [m.data for m in seen] == payloads[0::2]
        assert [m.seq for m in seen] == [0, 2, 4]
        assert {m.origin for m in seen} == {"mitm"}
        ids.scan(2.0)
        assert len(seen) == 3  # each message is read once

        refs = [weakref.ref(p) for p in payloads]
        del payloads, seen[:]
        gc_was_on = gc.isenabled()
        gc.disable()
        try:
            assert all(ref() is None for ref in refs)
        finally:
            if gc_was_on:
                gc.enable()
