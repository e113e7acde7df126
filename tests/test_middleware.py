"""Unit tests for the ROS-like bus, its interceptors and the attack injectors."""

import pytest

from repro.middleware.attacks import SpoofingAttack
from repro.middleware.rosbus import Message, RosBus, TrafficLog


@pytest.fixture
def bus():
    return RosBus()


class TestRosBus:
    def test_publish_delivers_to_subscriber(self, bus):
        received = []
        bus.subscribe("/t", "node", received.append)
        bus.publish("/t", {"x": 1}, sender="a")
        assert len(received) == 1
        assert received[0].data == {"x": 1}

    def test_publish_does_not_cross_topics(self, bus):
        received = []
        bus.subscribe("/a", "node", received.append)
        bus.publish("/b", 1, sender="s")
        assert received == []

    def test_multiple_subscribers_all_receive(self, bus):
        hits = []
        bus.subscribe("/t", "n1", lambda m: hits.append("n1"))
        bus.subscribe("/t", "n2", lambda m: hits.append("n2"))
        bus.publish("/t", None, sender="s")
        assert hits == ["n1", "n2"]

    def test_unsubscribe_stops_delivery(self, bus):
        received = []
        sub = bus.subscribe("/t", "n", received.append)
        sub.unsubscribe()
        bus.publish("/t", 1, sender="s")
        assert received == []

    def test_sequence_numbers_increase(self, bus):
        m1 = bus.publish("/t", 1, sender="s")
        m2 = bus.publish("/t", 2, sender="s")
        assert m2.seq > m1.seq

    def test_honest_message_not_forged(self, bus):
        message = bus.publish("/t", 1, sender="uav1")
        assert message.origin == "uav1"
        assert not message.is_forged

    def test_forged_message_flagged(self, bus):
        message = bus.publish("/t", 1, sender="uav1", origin="attacker")
        assert message.is_forged

    def test_traffic_log_records_everything(self, bus):
        bus.subscribe("/t", "n", lambda m: None)
        for i in range(5):
            bus.publish("/t", i, sender="s")
        assert len(bus.traffic) == 5

    def test_stamp_follows_clock(self, bus):
        bus.advance_clock(42.0)
        message = bus.publish("/t", 1, sender="s")
        assert message.stamp == 42.0

    def test_topics_lists_active_subscriptions(self, bus):
        bus.subscribe("/a", "n", lambda m: None)
        sub = bus.subscribe("/b", "n", lambda m: None)
        sub.unsubscribe()
        assert bus.topics() == ["/a"]

    def test_interceptor_can_drop_messages(self, bus):
        received = []
        bus.subscribe("/t", "n", received.append)
        bus.add_interceptor(lambda m: None)
        result = bus.publish("/t", 1, sender="s")
        assert result is None
        assert received == []
        assert len(bus.traffic) == 0

    def test_traffic_log_capacity_eviction(self):
        bus = RosBus()
        bus.traffic._capacity = 10
        for i in range(11):
            bus.publish("/t", i, sender="s")
        # Crossing capacity evicts the oldest half in one batch: 0..4 go,
        # 5..10 survive in their original order.
        assert [m.data for m in bus.traffic] == [5, 6, 7, 8, 9, 10]
        # The log refills until it crosses capacity again (at data=15),
        # then evicts another oldest-half batch.
        for i in range(11, 15):
            bus.publish("/t", i, sender="s")
        assert len(bus.traffic) == 10
        bus.publish("/t", 15, sender="s")
        assert [m.data for m in bus.traffic] == list(range(10, 16))

    def test_traffic_log_after_counts_evicted_messages(self):
        log = TrafficLog(capacity=10)
        bus = RosBus()
        bus.traffic = log
        for i in range(11):
            bus.publish("/t", i, sender="s")
        assert log.evicted == 5
        # Absolute counts: the first 8 messages ever recorded are 0..7.
        assert [m.data for m in log.after(8)] == [8, 9, 10]
        assert log.after(11) == []
        # Counts inside the evicted prefix return what survives.
        assert [m.data for m in log.after(2)] == [5, 6, 7, 8, 9, 10]
        # publish_many's direct append leaves the eviction count alone.
        bus.publish_many([("/t", 11, "s"), ("/t", 12, "s")], stamp=0.0)
        assert log.evicted == 5
        assert [m.data for m in log.after(11)] == [11, 12]

    def test_interceptors_run_in_order_and_drop_short_circuits(self):
        bus = RosBus()
        received, calls = [], []
        bus.subscribe("/t", "n", received.append)

        def replace(message):
            calls.append("replace")
            return Message(
                topic=message.topic, data=message.data + 100,
                sender=message.sender, origin="mitm", stamp=message.stamp,
                seq=message.seq,
            )

        def drop_odd(message):
            calls.append("drop")
            return None if message.data % 2 else message

        bus.add_interceptor(replace)
        bus.add_interceptor(drop_odd)
        kept = bus.publish("/t", 2, sender="uav1")
        # The second interceptor saw the first one's replacement...
        assert kept.data == 102 and kept.origin == "mitm"
        dropped = bus.publish("/t", 3, sender="uav1")
        assert dropped is None
        # ...and a drop hides the message from subscribers AND the log.
        assert [m.data for m in received] == [102]
        assert [m.data for m in bus.traffic] == [102]
        assert calls == ["replace", "drop", "replace", "drop"]

    def test_drop_before_replace_never_reaches_second_interceptor(self):
        bus = RosBus()
        calls = []
        bus.add_interceptor(lambda m: calls.append("drop") or None)
        bus.add_interceptor(lambda m: calls.append("late") or m)
        assert bus.publish("/t", 1, sender="s") is None
        assert calls == ["drop"]  # short-circuit: the chain stops at None

    def test_unsubscribe_mid_publish_skips_later_subscriber(self, bus):
        received = []
        subs = {}

        def first(message):
            received.append("first")
            subs["second"].unsubscribe()

        subs["second"] = None
        bus.subscribe("/t", "n1", first)
        subs["second"] = bus.subscribe("/t", "n2", lambda m: received.append("second"))
        bus.publish("/t", 1, sender="s")
        # The snapshot in publish() still honours the deactivation: the
        # second callback must not fire after its unsubscribe.
        assert received == ["first"]
        bus.publish("/t", 2, sender="s")
        assert received == ["first", "first"]

    def test_resubscribe_after_mid_publish_unsubscribe(self, bus):
        received = []
        sub = bus.subscribe("/t", "n", received.append)

        def nuke_then_resubscribe(message):
            sub.unsubscribe()

        bus.subscribe("/t", "killer", nuke_then_resubscribe)
        bus.publish("/t", 1, sender="s")
        assert [m.data for m in received] == [1]  # delivered before the kill
        bus.publish("/t", 2, sender="s")
        assert [m.data for m in received] == [1]
        bus.subscribe("/t", "n", received.append)
        bus.publish("/t", 3, sender="s")
        assert [m.data for m in received] == [1, 3]


class TestSpoofingAttack:
    def test_injects_forged_messages_in_window(self, bus):
        attack = SpoofingAttack(
            bus=bus,
            t_start=10.0,
            t_stop=12.0,
            name="adv",
            topic="/t",
            spoofed_sender="uav1",
            payload_fn=lambda now: now,
            rate_hz=2.0,
        )
        bus.advance_clock(11.0)
        attack.step(11.0)
        forged = [m for m in bus.traffic if m.is_forged]
        assert forged
        assert all(m.sender == "uav1" and m.origin == "adv" for m in forged)

    def test_no_injection_before_window(self, bus):
        attack = SpoofingAttack(bus=bus, t_start=10.0, name="adv", topic="/t")
        attack.step(5.0)
        assert len(bus.traffic) == 0

    def test_no_injection_after_window(self, bus):
        attack = SpoofingAttack(
            bus=bus, t_start=1.0, t_stop=2.0, name="adv", topic="/t"
        )
        attack.step(3.0)
        assert len(bus.traffic) == 0

    def test_rate_controls_message_count(self, bus):
        attack = SpoofingAttack(
            bus=bus, t_start=0.0, name="adv", topic="/t", rate_hz=10.0
        )
        attack.step(1.0)  # 0.0 .. 1.0 at 10 Hz -> ~11 emissions
        assert 9 <= len(bus.traffic) <= 12


def publish_via(bus, mode, items):
    """Publish ``(topic, data, sender)`` items one by one or as a batch."""
    if mode == "publish":
        for topic, data, sender in items:
            bus.publish(topic, data, sender=sender)
    else:
        bus.publish_many(items, stamp=bus.clock)


class TestTransportInterceptors:
    """What a transport-level observer or rewriter does, on both publish paths."""

    ITEMS = [("/uav1/pose", "p1", "uav1"), ("/gcs/cmd", "c1", "gcs"), ("/uav1/pose", "p2", "uav1")]

    @pytest.mark.parametrize("mode", ["publish", "publish_many"])
    def test_observer_sees_everything_and_changes_nothing(self, bus, mode):
        seen, received = [], []
        bus.subscribe("/uav1/pose", "n", received.append)
        bus.add_interceptor(lambda m: seen.append(m) or m)
        publish_via(bus, mode, self.ITEMS)
        assert [m.data for m in seen] == ["p1", "c1", "p2"]
        assert list(bus.traffic) == seen
        assert [m.data for m in received] == ["p1", "p2"]
        assert not any(m.is_forged for m in received)

    @pytest.mark.parametrize("mode", ["publish", "publish_many"])
    def test_topic_scoped_rewrite_leaves_other_topics_untouched(self, bus, mode):
        poses, commands = [], []
        bus.subscribe("/uav1/pose", "n", poses.append)
        bus.subscribe("/gcs/cmd", "n", commands.append)
        bus.add_interceptor(
            lambda m: m._replace(data=m.data.upper(), origin="mitm")
            if m.topic == "/uav1/pose" else m
        )
        publish_via(bus, mode, self.ITEMS)
        assert [(m.data, m.origin) for m in poses] == [("P1", "mitm"), ("P2", "mitm")]
        assert [(m.data, m.origin) for m in commands] == [("c1", "gcs")]
        assert [m.seq for m in bus.traffic] == sorted(m.seq for m in bus.traffic)
