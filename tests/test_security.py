"""Unit tests for attack trees, broker, IDS, Security EDDI, spoof detector."""

import itertools

import numpy as np
import pytest

from repro.middleware.rosbus import RosBus
from repro.security.attack_trees import (
    AttackNode,
    AttackTree,
    GateType,
    ros_spoofing_attack_tree,
)
from repro.security.broker import MqttBroker, topic_matches
from repro.security.eddi import SecurityEddi
from repro.security.ids import Alert, IdsRule, IntrusionDetectionSystem
from repro.security.spoofing import GpsSpoofingDetector


def leaves(tree: AttackTree) -> list[AttackNode]:
    """Every leaf attack step of ``tree``."""
    return [n for n in tree.root.iter_nodes() if n.gate is GateType.LEAF]


class TestAttackTree:
    def test_leaf_cannot_have_children(self):
        with pytest.raises(ValueError):
            AttackNode("x", "t", GateType.LEAF, children=[AttackNode("y", "t")])

    def test_gate_needs_children(self):
        with pytest.raises(ValueError):
            AttackNode("x", "t", GateType.AND)

    def test_or_gate_any_child(self):
        tree = ros_spoofing_attack_tree()
        tree.mark_achieved("network_intrusion")
        gain = next(n for n in tree.root.iter_nodes() if n.node_id == "gain_access")
        assert gain.evaluate()

    def test_and_gate_needs_all(self):
        tree = ros_spoofing_attack_tree()
        tree.mark_achieved("network_intrusion")
        assert not tree.root_achieved()
        tree.mark_achieved("inject_messages")
        assert tree.root_achieved()

    def test_mark_unknown_leaf_raises(self):
        tree = ros_spoofing_attack_tree()
        with pytest.raises(KeyError):
            tree.mark_achieved("nope")

    def test_mark_non_leaf_raises(self):
        tree = ros_spoofing_attack_tree()
        with pytest.raises(ValueError):
            tree.mark_achieved("gain_access")

    def test_reset(self):
        tree = ros_spoofing_attack_tree()
        tree.mark_achieved("network_intrusion")
        tree.mark_achieved("inject_messages")
        tree.reset()
        assert not tree.root_achieved()
        assert not any(leaf.achieved for leaf in leaves(tree))

    def test_attack_path_traces_to_root(self):
        tree = ros_spoofing_attack_tree()
        tree.mark_achieved("network_intrusion")
        tree.mark_achieved("inject_messages")
        path = tree.attack_path()
        assert "manipulate_mapping" in path
        assert "gain_access" in path
        assert "network_intrusion" in path

    def test_leaf_by_alert_type(self):
        tree = ros_spoofing_attack_tree()
        leaves = tree.leaf_by_alert_type("message_injection")
        assert [n.node_id for n in leaves] == ["inject_messages"]

    def test_leaf_by_alert_type_keeps_pre_order_and_skips_gates(self):
        root = AttackNode(
            "goal", "t", GateType.OR, alert_type="shared",
            children=[
                AttackNode("b", "t", alert_type="shared"),
                AttackNode(
                    "sub", "t", GateType.AND,
                    children=[
                        AttackNode("c", "t", alert_type="other"),
                        AttackNode("a", "t", alert_type="shared"),
                    ],
                ),
                AttackNode("d", "t"),
            ],
        )
        tree = AttackTree(name="order", root=root)
        leaves = tree.leaf_by_alert_type("shared")
        assert [n.node_id for n in leaves] == ["b", "a"]
        assert [n.node_id for n in tree.leaf_by_alert_type(None)] == ["d"]
        assert tree.leaf_by_alert_type("unknown") == []
        leaves.clear()  # the caller's list is its own
        assert len(tree.leaf_by_alert_type("shared")) == 2

    def test_duplicate_node_id_rejected(self):
        # Two leaves share an id: mark_achieved("dup") could only ever mark
        # the first, whichever leaf the alert type matched.
        root = AttackNode(
            "goal", "t", GateType.AND,
            children=[
                AttackNode("dup", "a", alert_type="alert_a"),
                AttackNode("dup", "b", alert_type="alert_b"),
            ],
        )
        with pytest.raises(ValueError, match="duplicate node_id 'dup'"):
            AttackTree(name="bad", root=root)

SPOOFING_LEAVES = ("network_intrusion", "node_compromise", "inject_messages")


class TestRosSpoofingTree:
    """The Fig. 6 tree: (network intrusion OR node compromise) AND injection."""

    @pytest.mark.parametrize(
        "achieved",
        [
            frozenset(combo)
            for size in range(len(SPOOFING_LEAVES) + 1)
            for combo in itertools.combinations(SPOOFING_LEAVES, size)
        ],
        ids=lambda combo: "+".join(sorted(combo)) or "none",
    )
    def test_root_truth_table(self, achieved):
        tree = ros_spoofing_attack_tree()
        for leaf in achieved:
            tree.mark_achieved(leaf)
        access = bool(achieved & {"network_intrusion", "node_compromise"})
        goal = access and "inject_messages" in achieved
        assert tree.root_achieved() is goal
        assert ("gain_access" in tree.attack_path()) is access
        assert ("manipulate_mapping" in tree.attack_path()) is goal
        assert {n.node_id for n in leaves(tree) if n.achieved} == set(achieved)

    @pytest.mark.parametrize("leaf_id", SPOOFING_LEAVES)
    def test_each_leaf_is_a_detectable_capec_step(self, leaf_id):
        # Sec. III-B: every scenario record carries a CAPEC id, a severity,
        # a likelihood and a mitigation; a leaf also names the IDS alert
        # that evidences it, and that alert finds exactly this leaf.
        tree = ros_spoofing_attack_tree()
        (leaf,) = [n for n in leaves(tree) if n.node_id == leaf_id]
        assert leaf.capec_id.startswith("CAPEC-")
        assert leaf.severity in {"low", "medium", "high"}
        assert leaf.likelihood in {"low", "medium", "high"}
        assert leaf.mitigation
        assert tree.leaf_by_alert_type(leaf.alert_type) == [leaf]


class TestTopicMatching:
    @pytest.mark.parametrize(
        "pattern,topic,expected",
        [
            ("a/b", "a/b", True),
            ("a/b", "a/c", False),
            ("a/+", "a/b", True),
            ("a/+", "a/b/c", False),
            ("a/#", "a/b/c", True),
            ("#", "anything/at/all", True),
            ("a/+/c", "a/b/c", True),
            ("a/+/c", "a/b/d", False),
            ("a/b", "a", False),
            ("a", "a/b", False),
        ],
    )
    def test_matching(self, pattern, topic, expected):
        assert topic_matches(pattern, topic) is expected


class TestBroker:
    def test_publish_and_subscribe(self):
        broker = MqttBroker()
        got = []
        broker.subscribe("ids/alerts/#", lambda t, p: got.append((t, p)))
        n = broker.publish("ids/alerts/spoof", {"x": 1})
        assert n == 1
        assert got == [("ids/alerts/spoof", {"x": 1})]

    def test_wildcard_publish_rejected(self):
        broker = MqttBroker()
        with pytest.raises(ValueError):
            broker.publish("ids/#", None)

    def test_retained_replay_on_subscribe(self):
        broker = MqttBroker()
        broker.publish("status", "armed", retain=True)
        got = []
        broker.subscribe("status", lambda t, p: got.append(p))
        assert got == ["armed"]

    def test_unsubscribe(self):
        broker = MqttBroker()
        got = []
        sub = broker.subscribe("t", lambda t, p: got.append(p))
        broker.unsubscribe(sub)
        broker.publish("t", 1)
        assert got == []


def make_ids():
    bus = RosBus()
    broker = MqttBroker()
    ids = IntrusionDetectionSystem(bus=bus, broker=broker)
    for node in ("uav1", "uav2", "gcs"):
        ids.register_node(node)
    return bus, broker, ids


class TestIds:
    def test_honest_traffic_no_alerts(self):
        bus, _, ids = make_ids()
        bus.publish("/uav1/pose", 1, sender="uav1")
        assert ids.scan(0.0) == []

    def test_forged_message_raises_injection_alert(self):
        bus, _, ids = make_ids()
        bus.publish("/uav1/pose", 1, sender="uav1", origin="adversary")
        alerts = ids.scan(0.0)
        types = {a.alert_type for a in alerts}
        assert "message_injection" in types
        assert "unauthorized_publisher" in types

    def test_known_node_forging_another(self):
        # A compromised fleet node spoofing a peer: injection but not
        # unauthorized (the origin is registered).
        bus, _, ids = make_ids()
        bus.publish("/uav1/pose", 1, sender="uav1", origin="uav2")
        types = {a.alert_type for a in ids.scan(0.0)}
        assert types == {"message_injection"}

    def test_alerts_published_to_broker(self):
        bus, broker, ids = make_ids()
        got = []
        broker.subscribe("ids/alerts/#", lambda t, p: got.append(p))
        bus.publish("/uav1/pose", 1, sender="uav1", origin="adversary")
        ids.scan(0.0)
        assert got
        assert all(isinstance(a, Alert) for a in got)

    def test_scan_cursor_does_not_reprocess(self):
        bus, _, ids = make_ids()
        bus.publish("/uav1/pose", 1, sender="uav1", origin="adversary")
        first = ids.scan(0.0)
        second = ids.scan(1.0)
        assert first and not second

    def test_rate_anomaly(self):
        bus, _, ids = make_ids()
        ids.rate_limits_hz["/uav1/pose"] = 2.0
        for i in range(20):
            bus.advance_clock(i * 0.05)
            bus.publish("/uav1/pose", i, sender="uav1")
        alerts = ids.scan(1.0)
        assert any(a.alert_type == "rate_anomaly" for a in alerts)

    def test_rate_within_limit_no_alert(self):
        bus, _, ids = make_ids()
        ids.rate_limits_hz["/uav1/pose"] = 5.0
        for i in range(4):
            bus.advance_clock(float(i))
            bus.publish("/uav1/pose", i, sender="uav1")
        assert ids.scan(4.0) == []

    def test_flood_during_warmup_is_detected(self):
        # Regression: a flood inside the first seconds of a stream used
        # to be averaged over the full rate window (2 s) before the
        # window had spanned that long, underestimating the rate — a
        # 20 Hz burst read as 4 Hz and sailed under a 10 Hz limit.
        bus, _, ids = make_ids()
        ids.rate_limits_hz["/uav1/pose"] = 10.0
        for i in range(8):
            bus.advance_clock(i * 0.05)  # 8 messages in 0.35 s
            bus.publish("/uav1/pose", i, sender="uav1")
        alerts = ids.scan(0.4)
        assert any(a.alert_type == "rate_anomaly" for a in alerts)

    def test_warmup_normalization_has_floor_and_no_false_positive(self):
        # Sparse early traffic must not trip the limit: two messages
        # 50 ms apart normalized by the floored span stay under 5 Hz.
        bus, _, ids = make_ids()
        ids.rate_limits_hz["/uav1/pose"] = 5.0
        for i in range(2):
            bus.advance_clock(i * 0.05)
            bus.publish("/uav1/pose", i, sender="uav1")
        assert ids.scan(0.1) == []

    def test_custom_rule(self):
        bus, _, ids = make_ids()
        ids.custom_rules.append(
            IdsRule(
                name="no_huge_payload",
                check=lambda m: "payload_anomaly" if m.data == "huge" else None,
            )
        )
        bus.publish("/uav1/pose", "huge", sender="uav1")
        alerts = ids.scan(0.0)
        assert any(a.alert_type == "payload_anomaly" for a in alerts)


class TestSecurityEddi:
    def test_full_pipeline_detects_root_goal(self):
        bus, broker, ids = make_ids()
        eddi = SecurityEddi(tree=ros_spoofing_attack_tree(), broker=broker)
        fired = []
        eddi.on_critical.append(fired.append)
        bus.advance_clock(12.0)
        bus.publish("/uav1/pose", "fake", sender="uav1", origin="adversary")
        ids.scan(12.0)
        assert eddi.root_achieved
        assert len(eddi.events) == 1
        assert fired and fired[0].stamp == 12.0
        assert "manipulate_mapping" in fired[0].attack_path

    def test_partial_attack_no_event(self):
        bus, broker, ids = make_ids()
        eddi = SecurityEddi(tree=ros_spoofing_attack_tree(), broker=broker)
        # Compromised-node forgery: injection alert only -> AND unsatisfied?
        # inject_messages leaf achieved, but gain_access needs intrusion or
        # node_anomaly, neither of which fires for a registered origin...
        bus.publish("/uav1/pose", "fake", sender="uav1", origin="uav2")
        ids.scan(0.0)
        assert not eddi.root_achieved
        assert eddi.events == []

    def test_event_fires_once(self):
        bus, broker, ids = make_ids()
        eddi = SecurityEddi(tree=ros_spoofing_attack_tree(), broker=broker)
        for i in range(5):
            bus.publish("/uav1/pose", i, sender="uav1", origin="adversary")
        ids.scan(0.0)
        assert len(eddi.events) == 1

    def test_reset_allows_new_detection(self):
        bus, broker, ids = make_ids()
        eddi = SecurityEddi(tree=ros_spoofing_attack_tree(), broker=broker)
        bus.publish("/uav1/pose", 1, sender="uav1", origin="adversary")
        ids.scan(0.0)
        eddi.reset()
        assert not eddi.root_achieved
        bus.publish("/uav1/pose", 2, sender="uav1", origin="adversary")
        ids.scan(1.0)
        assert len(eddi.events) == 1

    def test_event_carries_mitigation(self):
        bus, broker, ids = make_ids()
        eddi = SecurityEddi(tree=ros_spoofing_attack_tree(), broker=broker)
        bus.publish("/uav1/pose", 1, sender="uav1", origin="adversary")
        ids.scan(0.0)
        assert "ollaborative" in eddi.events[0].mitigation  # CL named as mitigation


class TestGpsSpoofingDetector:
    def run_epochs(self, detector, epochs, offset_fn, rng, dt=0.5):
        """Simulate straight flight with GPS offset injection."""
        truth = np.zeros(3)
        velocity = np.array([2.0, 0.0, 0.0])
        verdict = None
        for k in range(epochs):
            now = k * dt
            truth = truth + velocity * dt
            gps = truth + offset_fn(now) + rng.normal(0.0, 0.3, 3)
            imu = velocity + rng.normal(0.0, 0.05, 3)
            verdict = detector.update(now, tuple(gps), tuple(imu), dt)
        return verdict

    def test_clean_flight_no_alarm(self):
        detector = GpsSpoofingDetector()
        rng = np.random.default_rng(0)
        verdict = self.run_epochs(detector, 400, lambda t: np.zeros(3), rng)
        assert not verdict.spoofed

    def test_abrupt_jump_detected(self):
        detector = GpsSpoofingDetector()
        rng = np.random.default_rng(1)
        verdict = self.run_epochs(
            detector, 100,
            lambda t: np.array([25.0, 0.0, 0.0]) if t > 20.0 else np.zeros(3),
            rng,
        )
        assert verdict.spoofed
        assert detector.detection_time > 20.0
        assert detector.detection_time < 25.0

    def test_slow_ramp_detected(self):
        detector = GpsSpoofingDetector()
        rng = np.random.default_rng(2)
        verdict = self.run_epochs(
            detector, 200,
            lambda t: np.array([max(0.0, 0.8 * (t - 20.0)), 0.0, 0.0]),
            rng,
        )
        assert verdict.spoofed
        assert detector.detection_time < 40.0  # within ~20 s of ramp onset

    def test_single_glitch_rejected(self):
        detector = GpsSpoofingDetector(hits_to_alarm=3)
        rng = np.random.default_rng(3)
        verdict = self.run_epochs(
            detector, 100,
            lambda t: np.array([30.0, 0.0, 0.0]) if abs(t - 20.0) < 0.3 else np.zeros(3),
            rng,
        )
        assert not verdict.spoofed

    def test_reset_clears_state(self):
        detector = GpsSpoofingDetector()
        rng = np.random.default_rng(4)
        self.run_epochs(
            detector, 100, lambda t: np.array([50.0, 0.0, 0.0]) if t > 5 else np.zeros(3), rng
        )
        assert detector.spoof_detected
        detector.reset()
        assert not detector.spoof_detected
        assert detector.history == []
