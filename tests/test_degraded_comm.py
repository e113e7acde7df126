"""The degraded-link transport layer and its assurance-loop integration.

Covers the PR's acceptance criteria: (a) a bare DegradedBus is
byte-for-byte equivalent to RosBus on an existing fleet experiment,
(b) a scripted partition demotes the affected UAV's EDDI guarantee within
one staleness window and the guarantee recovers after the partition
heals, (c) ReliableChannel's retry count stays bounded (capped backoff)
across a 30 s blackout — plus unit coverage of LinkModel and the comm
fault factories.
"""

import math

import numpy as np
import pytest

from repro.core.adapters import attach_degraded_comm, build_uav_eddi
from repro.core.uav_network import UavGuarantee
from repro.experiments.common import build_three_uav_world
from repro.middleware.degraded import DegradedBus, LinkModel
from repro.middleware.reliable import ReliableChannel
from repro.middleware.rosbus import RosBus
from repro.safedrones.communication import GilbertElliottChannel
from repro.sar.coverage import boustrophedon_path
from repro.uav.faults import (
    FaultSchedule,
    comm_blackout,
    comm_degradation,
    network_partition,
)
from repro.uav.uav import FlightMode

MISSION_CAPABLE = (
    UavGuarantee.CONTINUE_MISSION_EXTRA,
    UavGuarantee.CONTINUE_MISSION,
)


def _run_fleet_mission(bus, record_traffic, seed=11, steps=120):
    """The standard three-UAV coverage setup stepped for a fixed horizon.

    Returns the world and a fingerprint of every message its bus carried.
    """
    traffic = record_traffic(bus)
    scenario = build_three_uav_world(seed=seed, n_persons=4, bus=bus)
    world = scenario.world
    for i, uav in enumerate(world.uavs.values()):
        strip = ((120.0 * i, 120.0 * (i + 1)), (0.0, 200.0))
        uav.start_mission(boustrophedon_path(strip, 20.0))
    for _ in range(steps):
        world.step()
    return world, [(m.topic, m.sender, m.origin, m.seq, m.stamp, m.data) for m in traffic]


class TestDegradedBusEquivalence:
    def test_zero_loss_byte_for_byte_equivalent_to_rosbus(self, record_traffic):
        """Criterion (a): an unconfigured DegradedBus is a perfect RosBus."""
        world_ref, ref = _run_fleet_mission(RosBus(), record_traffic)
        world_deg, deg = _run_fleet_mission(DegradedBus(), record_traffic)
        assert len(ref) > 100
        assert deg == ref
        for uav_id in world_ref.uavs:
            assert (
                world_deg.uavs[uav_id].trajectory == world_ref.uavs[uav_id].trajectory
            )

    def test_zero_loss_with_perfect_links_still_equivalent(self, record_traffic):
        """Explicit all-pass links change nothing either."""
        bus = DegradedBus()
        bus.set_link("uav1", "uav2", LinkModel())
        bus.set_link("uav2", "uav3", LinkModel())
        _, deg = _run_fleet_mission(bus, record_traffic)
        _, ref = _run_fleet_mission(RosBus(), record_traffic)
        assert deg == ref

    def test_subscribers_and_interceptors_keep_working(self):
        bus = DegradedBus()
        received = []
        bus.subscribe("/t", "n", received.append)
        bus.add_interceptor(lambda m: None if m.data == "drop" else m)
        assert bus.publish("/t", "drop", sender="s") is None
        message = bus.publish("/t", "keep", sender="s")
        assert [m.data for m in received] == ["keep"]
        assert message.origin == "s"


class TestLinkModel:
    def test_uniform_loss_ratio(self):
        link = LinkModel(rng=np.random.default_rng(0), loss_probability=0.4)
        outcomes = [link.transmit(0.0) is not None for _ in range(4000)]
        assert 0.55 < sum(outcomes) / len(outcomes) < 0.65
        assert link.stats.sent == 4000
        assert math.isclose(
            link.stats.delivery_ratio, sum(outcomes) / len(outcomes)
        )

    def test_gilbert_elliott_channel_plugs_in(self):
        channel = GilbertElliottChannel(
            rng=np.random.default_rng(3), loss_good=0.0, loss_bad=1.0,
            p_good_to_bad=0.5, p_bad_to_good=0.5,
        )
        link = LinkModel(channel=channel)
        delivered = 0
        for _ in range(2000):
            link.step(0.5)
            if link.transmit(0.0) is not None:
                delivered += 1
        # Stationary bad fraction is 0.5 and BAD loses everything.
        assert 0.4 < delivered / 2000 < 0.6

    def test_latency_and_jitter_delay_delivery(self):
        link = LinkModel(rng=np.random.default_rng(1), latency_s=0.3, jitter_s=0.2)
        deliver_at = link.transmit(10.0)
        assert 10.3 <= deliver_at <= 10.5
        assert link.stats.delayed == 1

    def test_bandwidth_cap_drops_excess(self):
        link = LinkModel(bandwidth_msgs_per_s=3)
        sent = [link.transmit(0.1 * i) is not None for i in range(10)]
        assert sum(sent[:10]) == 3  # one 1-s bucket admits only 3
        assert link.stats.dropped_bandwidth == 7
        assert link.transmit(1.5) is not None  # next bucket reopens

    def test_invalid_loss_probability_rejected(self):
        with pytest.raises(ValueError):
            LinkModel(loss_probability=1.2)


class TestDegradedBusTransport:
    def _bus_with_pair(self, **link_kwargs):
        bus = DegradedBus()
        link = bus.set_link("a", "b", LinkModel(**link_kwargs))
        received = []
        bus.subscribe("/t", "b", received.append)
        return bus, link, received

    @pytest.mark.parametrize(
        "cut",
        [
            lambda bus: bus.set_node_down("a"),
            lambda bus: bus.set_node_down("b"),
            lambda bus: bus.add_partition(("a",), ("b",)),
        ],
        ids=["sender-down", "receiver-down", "partition"],
    )
    def test_cut_copies_count_as_outage_drops_and_heal(self, cut):
        bus, link, received = self._bus_with_pair(latency_s=0.0)
        handle = cut(bus)
        bus.publish("/t", 1, sender="a")
        assert received == []
        assert bus.stats.dropped_outage == 1
        assert link.stats.sent == 0  # cut before the link is tried
        if isinstance(handle, tuple):
            bus.remove_partition(handle)
        else:
            bus.set_node_down("a", False)
            bus.set_node_down("b", False)
        bus.publish("/t", 2, sender="a")
        assert [m.data for m in received] == [2]

    def test_lossy_link_drops_subscriber_copies(self, record_traffic):
        bus, link, received = self._bus_with_pair(
            rng=np.random.default_rng(0), loss_probability=1.0
        )
        traffic = record_traffic(bus)
        bus.publish("/t", 1, sender="a")
        assert received == []
        assert len(traffic) == 1  # an IDS still sees the transmission

    def test_delayed_copy_arrives_on_advance_clock(self):
        bus, link, received = self._bus_with_pair(latency_s=1.0)
        bus.publish("/t", "late", sender="a")
        assert received == []
        assert len(bus._pending) == 1
        bus.advance_clock(0.5)
        assert received == []
        bus.advance_clock(1.0)
        assert [m.data for m in received] == ["late"]

    def test_delayed_copies_drain_in_timestamp_order(self):
        bus = DegradedBus()
        bus.set_link("a", "b", LinkModel(latency_s=2.0))
        bus.set_link("c", "b", LinkModel(latency_s=1.0))
        received = []
        bus.subscribe("/t", "b", received.append)
        bus.publish("/t", "slow", sender="a")
        bus.publish("/t", "fast", sender="c")
        bus.advance_clock(3.0)
        assert [m.data for m in received] == ["fast", "slow"]

    def test_unsubscribed_mid_flight_not_delivered(self):
        bus, link, received = self._bus_with_pair(latency_s=1.0)
        bus.publish("/t", 1, sender="a")
        bus._subs["/t"][0].unsubscribe()
        bus.advance_clock(2.0)
        assert received == []

    def test_node_blackout_cuts_both_directions(self):
        bus = DegradedBus()
        got_a, got_b = [], []
        bus.subscribe("/ta", "b", got_b.append)
        bus.subscribe("/tb", "a", got_a.append)
        bus.set_node_down("a")
        bus.publish("/ta", 1, sender="a")
        bus.publish("/tb", 1, sender="b")
        assert got_a == [] and got_b == []
        assert bus.stats.dropped_outage == 2
        bus.set_node_down("a", False)
        bus.publish("/ta", 2, sender="a")
        assert [m.data for m in got_b] == [2]

    def test_partition_blocks_cross_group_only(self):
        bus = DegradedBus()
        got = {name: [] for name in ("a", "b", "c")}
        for name in got:
            bus.subscribe("/t", name, got[name].append)
        handle = bus.add_partition(("a",), ("b", "c"))
        bus.publish("/t", 1, sender="a")
        assert [m.data for m in got["a"]] == [1]  # self-delivery unaffected
        assert got["b"] == [] and got["c"] == []
        bus.publish("/t", 2, sender="b")
        assert [m.data for m in got["c"]] == [2]  # same-side traffic flows
        bus.remove_partition(handle)
        bus.publish("/t", 3, sender="a")
        assert [m.data for m in got["b"]] == [2, 3]  # 2 was b's self-delivery

    def test_node_loss_applies_to_either_endpoint(self):
        bus = DegradedBus(rng=np.random.default_rng(5))
        received = []
        bus.subscribe("/t", "b", received.append)
        bus.set_node_loss("b", 0.5)
        for _ in range(600):
            bus.publish("/t", 0, sender="a")
        assert 0.4 < len(received) / 600 < 0.6
        bus.set_node_loss("b", 0.0)
        before = len(received)
        bus.publish("/t", 0, sender="a")
        assert len(received) == before + 1


class TestCommFaultFactories:
    def _world(self, bus):
        scenario = build_three_uav_world(seed=2, n_persons=0, bus=bus)
        return scenario.world

    def test_comm_blackout_applies_and_clears(self):
        bus = DegradedBus()
        world = self._world(bus)
        schedule = FaultSchedule()
        schedule.add(
            comm_blackout(bus, "uav1", at_time=2.0, duration_s=3.0), world.uavs
        )
        while world.time < 10.0:
            world.step()
            schedule.step(world.time, world.uavs)
            if 2.0 <= world.time < 5.0:
                assert "uav1" in bus._down_nodes
        assert "uav1" not in bus._down_nodes
        assert [entry[2] for entry in schedule.log] == ["applied", "cleared"]

    def test_comm_degradation_sets_and_restores_loss(self):
        bus = DegradedBus()
        world = self._world(bus)
        schedule = FaultSchedule()
        schedule.add(
            comm_degradation(bus, "uav2", at_time=1.0, loss_probability=0.8,
                             duration_s=2.0),
            world.uavs,
        )
        schedule.step(1.0, world.uavs)
        assert bus._node_loss["uav2"] == 0.8
        schedule.step(3.5, world.uavs)
        assert "uav2" not in bus._node_loss

    def test_network_partition_fault_round_trip(self):
        bus = DegradedBus()
        world = self._world(bus)
        schedule = FaultSchedule()
        schedule.add(
            network_partition(bus, ("uav1",), ("uav2", "uav3"), at_time=0.5,
                              duration_s=4.0),
            world.uavs,
        )
        schedule.step(1.0, world.uavs)
        assert bus.partitioned("uav1", "uav3")
        assert not bus.partitioned("uav2", "uav3")
        schedule.step(5.0, world.uavs)
        assert not bus.partitioned("uav1", "uav3")

    def test_partition_groups_must_be_valid(self):
        bus = DegradedBus()
        with pytest.raises(ValueError):
            network_partition(bus, (), ("uav2",), at_time=0.0)
        with pytest.raises(ValueError):
            bus.add_partition(("uav1",), ("uav1", "uav2"))


class TestEddiStalenessDemotion:
    def _night_ops_world(self, bus, staleness_s=3.0):
        scenario = build_three_uav_world(seed=3, n_persons=0, bus=bus)
        world = scenario.world
        for uav in world.uavs.values():
            uav.sensors.gps.denied = True
            uav.sensors.camera.health = 0.2
            east, north, _ = uav.spec.base_position
            uav.dynamics.position = (east, north + 40.0, 20.0)
            uav.command_mode(FlightMode.HOLD)
        uav1 = world.uavs["uav1"]
        eddi, stack = build_uav_eddi(uav1, world, cl_range_m=500.0)
        attach_degraded_comm(
            eddi, stack, bus, peers=("uav2", "uav3"), staleness_s=staleness_s
        )
        return world, eddi, stack

    def test_partition_demotes_within_one_staleness_window_and_recovers(self):
        """Criterion (b): demote on scripted partition, recover on heal."""
        staleness_s = 3.0
        bus = DegradedBus()
        world, eddi, stack = self._night_ops_world(bus, staleness_s)
        schedule = FaultSchedule()
        schedule.add(
            network_partition(
                bus, ("uav1",), ("uav2", "uav3"), at_time=10.0, duration_s=20.0
            ),
            world.uavs,
        )

        trace = []
        while world.time < 50.0:
            world.step()
            schedule.step(world.time, world.uavs)
            trace.append((world.time, eddi.step(world.time)))

        def guarantee_at(t):
            return [g for (stamp, g) in trace if stamp <= t][-1]

        # Healthy mesh before the partition: mission-capable via CL.
        assert guarantee_at(9.5) in MISSION_CAPABLE
        # Within one staleness window (+2 cycles of slack) of the cut the
        # EDDI has demoted rather than reasoning over stale telemetry.
        demote_deadline = 10.0 + staleness_s + 2 * world.dt
        assert guarantee_at(demote_deadline) not in MISSION_CAPABLE
        # After the heal the delivery-ratio window refills and the
        # guarantee recovers.
        assert guarantee_at(49.9) in MISSION_CAPABLE
        demoted = [g for (stamp, g) in trace if g not in MISSION_CAPABLE]
        assert demoted, "the partition must actually demote the guarantee"

    def test_stale_adapter_flag_and_evidence(self):
        staleness_s = 2.0
        bus = DegradedBus()
        world, eddi, stack = self._night_ops_world(bus, staleness_s)
        bus.set_node_down("uav1")  # immediate blackout from t=0
        while world.time < 10.0:
            world.step()
            eddi.step(world.time)
        assert [a.name for a in eddi.adapters if a.stale] == ["degraded-comm"]
        assert eddi.network.comm_localization.evaluate().name == (
            "comm_localization_unavailable"
        )
        # Traffic resumes -> watermark refreshes -> staleness clears.
        bus.set_node_down("uav1", False)
        while world.time < 14.0:
            world.step()
            eddi.step(world.time)
        assert not any(a.stale for a in eddi.adapters)

    def test_sustained_loss_without_silence_also_demotes(self):
        """High loss keeps *some* packets flowing yet still demotes."""
        bus = DegradedBus()
        links = []
        for i, pair in enumerate((("uav1", "uav2"), ("uav1", "uav3"))):
            links.append(
                bus.set_link(
                    *pair,
                    LinkModel(
                        rng=np.random.default_rng(8 + i), loss_probability=0.9
                    ),
                )
            )
        world, eddi, stack = self._night_ops_world(bus)
        while world.time < 30.0:
            world.step()
            eddi.step(world.time)
        # The links were lossy, not silent: some packets did get through.
        assert sum(link.stats.delivered for link in links) > 0
        assert eddi.current_guarantee not in MISSION_CAPABLE


class TestReliableChannel:
    def _pair(self, bus, **kwargs):
        delivered = []
        alice = ReliableChannel(bus=bus, local="a", peer="b", **kwargs)
        bob = ReliableChannel(
            bus=bus, local="b", peer="a",
            on_deliver=lambda seq, data: delivered.append((seq, data)),
        )
        return alice, bob, delivered

    def test_clean_link_delivers_in_order_without_retries(self):
        bus = DegradedBus()
        alice, bob, delivered = self._pair(bus)
        for i in range(5):
            alice.send(f"m{i}", now=float(i))
            alice.step(float(i))
        assert delivered == [(i, f"m{i}") for i in range(5)]
        assert alice.stats.retries == 0
        assert not alice._pending

    def test_gap_detection_and_in_order_release(self):
        bus = DegradedBus()
        # Drop exactly the first copy of seq 1 via an interceptor.
        dropped = []

        def drop_once(message):
            if (
                message.topic.endswith("/a/b/data")
                and message.data["seq"] == 1
                and not dropped
            ):
                dropped.append(message)
                return None
            return message

        bus.add_interceptor(drop_once)
        alice, bob, delivered = self._pair(bus)
        for i in range(3):
            alice.send(f"m{i}", now=0.0)
        assert [seq for seq, _ in delivered] == [0]  # 2 buffered behind the gap
        assert bob.stats.gaps == 1
        bus.advance_clock(1.0)
        alice.step(1.0)  # retransmits seq 1; 2 releases right behind it
        assert [seq for seq, _ in delivered] == [0, 1, 2]

    def test_retry_count_bounded_during_30s_blackout(self):
        """Criterion (c): capped backoff bounds retries over a blackout."""
        bus = DegradedBus()
        alice, bob, delivered = self._pair(
            bus, retry_after_s=0.5, max_backoff_s=4.0, link_down_after_s=6.0
        )
        blackout = (5.0, 35.0)  # 30 s
        bus.set_node_down("a")
        link_events = []
        alice.on_link_change = link_events.append

        alice.send("payload", now=5.0)
        t = 5.0
        while t < 45.0:
            t += 0.5
            if t >= blackout[1]:
                bus.set_node_down("a", False)
            bus.advance_clock(t)
            alice.step(t)

        assert delivered == [(0, "payload")]
        assert not alice._pending
        # Doubling phase: ceil(log2(max/initial)) = 3 retries; capped
        # phase: one per max_backoff_s. Anything near-exponential or
        # per-step would blow far past this bound.
        duration = blackout[1] - blackout[0]
        bound = math.ceil(duration / 4.0) + math.ceil(math.log2(4.0 / 0.5)) + 3
        assert 3 <= alice.stats.retries <= bound
        # The sustained silence raised the explicit link-down signal, and
        # the first post-heal ack cleared it.
        assert link_events[0] is False
        assert link_events[-1] is True
        assert alice.link_up

    def test_duplicate_data_is_acked_but_not_redelivered(self):
        bus = DegradedBus()
        alice, bob, delivered = self._pair(bus)
        alice.send("once", now=0.0)
        # Force a spurious retransmit even though it was acked.
        alice._publish(0, "once")
        assert delivered == [(0, "once")]
        assert bob.stats.duplicates == 1

    def test_channel_close_unsubscribes(self):
        bus = DegradedBus()
        alice, bob, delivered = self._pair(bus)
        bob.close()
        alice.send("into the void", now=0.0)
        assert delivered == []
