"""Attack trees with CAPEC-style metadata.

"These attack trees ... outline all possible attack scenarios based on
identified cyber and physical vulnerabilities. Each attack scenario
includes high-level information such as 'capecId', 'title', 'description',
'severity', 'likelihood', and 'mitigation'" (Sec. III-B).

Leaves correspond to detectable attack steps (IDS alert types); internal
AND/OR gates combine steps toward the adversary's root goal. The tree
supports runtime marking of achieved leaves and queries for whether the
root goal is (or is about to be) reached — the logic the Security EDDI
scripts execute.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field


class GateType(enum.Enum):
    """How child steps combine at an internal node."""

    AND = "and"
    OR = "or"
    LEAF = "leaf"


@dataclass
class AttackNode:
    """One node of an attack tree.

    Metadata mirrors the paper's scenario records; ``alert_type`` binds a
    leaf to the IDS alert that evidences it.
    """

    node_id: str
    title: str
    gate: GateType = GateType.LEAF
    children: list["AttackNode"] = field(default_factory=list)
    capec_id: str | None = None
    description: str = ""
    severity: str = "medium"
    likelihood: str = "medium"
    mitigation: str = ""
    alert_type: str | None = None
    achieved: bool = False

    def __post_init__(self) -> None:
        if self.gate is GateType.LEAF and self.children:
            raise ValueError(f"{self.node_id}: leaf nodes cannot have children")
        if self.gate is not GateType.LEAF and not self.children:
            raise ValueError(f"{self.node_id}: gate nodes need children")

    def evaluate(self) -> bool:
        """Whether this node's (sub)goal is achieved given marked leaves."""
        if self.gate is GateType.LEAF:
            return self.achieved
        results = [child.evaluate() for child in self.children]
        if self.gate is GateType.AND:
            return all(results)
        return any(results)

    def iter_nodes(self) -> list["AttackNode"]:
        """This node and all descendants, pre-order."""
        out = [self]
        for child in self.children:
            out.extend(child.iter_nodes())
        return out


@dataclass
class AttackTree:
    """A named attack tree with a single root goal."""

    name: str
    root: AttackNode

    def __post_init__(self) -> None:
        # mark_achieved looks leaves up by id, so an id must name one node.
        # Both indexes are built once: the tree is not edited after this.
        self._by_id: dict[str, AttackNode] = {}
        self._leaves_by_alert: dict[str | None, list[AttackNode]] = {}
        for node in self.root.iter_nodes():
            if node.node_id in self._by_id:
                raise ValueError(
                    f"{self.name}: duplicate node_id {node.node_id!r}"
                )
            self._by_id[node.node_id] = node
            if node.gate is GateType.LEAF:
                self._leaves_by_alert.setdefault(node.alert_type, []).append(node)

    def leaves(self) -> list[AttackNode]:
        """All leaf attack steps."""
        return [n for n in self.root.iter_nodes() if n.gate is GateType.LEAF]

    def leaf_by_alert_type(self, alert_type: str) -> list[AttackNode]:
        """Leaves evidenced by a given IDS alert type."""
        return list(self._leaves_by_alert.get(alert_type, ()))

    def mark_achieved(self, node_id: str) -> None:
        """Mark one leaf as achieved (evidence observed)."""
        node = self._by_id[node_id]
        if node.gate is not GateType.LEAF:
            raise ValueError(f"{node_id} is not a leaf")
        node.achieved = True

    def reset(self) -> None:
        """Clear all achieved marks."""
        for node in self.root.iter_nodes():
            node.achieved = False

    def root_achieved(self) -> bool:
        """Whether the adversary's end goal is reached."""
        return self.root.evaluate()

    def attack_path(self) -> list[str]:
        """Node ids on the achieved path from leaves toward the root.

        The trace the Security EDDI reports: every node whose subgoal is
        currently satisfied.
        """
        return [n.node_id for n in self.root.iter_nodes() if n.evaluate()]

    def progress(self) -> float:
        """Fraction of leaves achieved — coarse attack-progress metric."""
        leaves = self.leaves()
        if not leaves:
            return 0.0
        return sum(1 for n in leaves if n.achieved) / len(leaves)

    # ------------------------------------------------------- serialisation
    def to_json(self) -> str:
        """Serialise the tree (structure + metadata) to JSON."""

        def encode(node: AttackNode) -> dict:
            return {
                "node_id": node.node_id,
                "title": node.title,
                "gate": node.gate.value,
                "capecId": node.capec_id,
                "description": node.description,
                "severity": node.severity,
                "likelihood": node.likelihood,
                "mitigation": node.mitigation,
                "alert_type": node.alert_type,
                "children": [encode(c) for c in node.children],
            }

        return json.dumps({"name": self.name, "root": encode(self.root)}, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "AttackTree":
        """Deserialise a tree produced by :meth:`to_json`."""

        def decode(obj: dict) -> AttackNode:
            return AttackNode(
                node_id=obj["node_id"],
                title=obj["title"],
                gate=GateType(obj["gate"]),
                capec_id=obj.get("capecId"),
                description=obj.get("description", ""),
                severity=obj.get("severity", "medium"),
                likelihood=obj.get("likelihood", "medium"),
                mitigation=obj.get("mitigation", ""),
                alert_type=obj.get("alert_type"),
                children=[decode(c) for c in obj.get("children", [])],
            )

        data = json.loads(text)
        return cls(name=data["name"], root=decode(data["root"]))


def ros_spoofing_attack_tree() -> AttackTree:
    """The ROS message-spoofing attack tree used in the Fig. 6 use case.

    Root goal: manipulate the UAV area-mapping system. The adversary must
    gain access to the ROS network (via network intrusion OR a compromised
    node) AND inject falsified messages.
    """
    root = AttackNode(
        node_id="manipulate_mapping",
        title="Manipulate UAV area mapping",
        gate=GateType.AND,
        capec_id="CAPEC-594",
        description="Falsify pose/waypoint traffic to corrupt area mapping.",
        severity="high",
        likelihood="medium",
        mitigation="Authenticated transport; collaborative localization fallback.",
        children=[
            AttackNode(
                node_id="gain_access",
                title="Gain access to ROS network",
                gate=GateType.OR,
                children=[
                    AttackNode(
                        node_id="network_intrusion",
                        title="Join unauthenticated ROS graph",
                        capec_id="CAPEC-292",
                        alert_type="unauthorized_publisher",
                        severity="high",
                        likelihood="high",
                        mitigation="Network segmentation, SROS2 authentication.",
                    ),
                    AttackNode(
                        node_id="node_compromise",
                        title="Compromise an onboard node",
                        capec_id="CAPEC-233",
                        alert_type="node_anomaly",
                        severity="high",
                        likelihood="low",
                        mitigation="Hardened companion OS, signed binaries.",
                    ),
                ],
            ),
            AttackNode(
                node_id="inject_messages",
                title="Inject falsified ROS messages",
                capec_id="CAPEC-153",
                alert_type="message_injection",
                severity="high",
                likelihood="medium",
                mitigation="Message signing; plausibility gating on subscribers.",
            ),
        ],
    )
    return AttackTree(name="ros_message_spoofing", root=root)
