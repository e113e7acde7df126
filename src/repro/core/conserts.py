"""Conditional Safety Certificates (ConSerts).

Implements the ConSerts runtime model (Reich et al., SAFECOMP 2020, cited
as the paper's integrating technology): a component offers an ordered list
of **guarantees**, each conditioned on a boolean tree over **runtime
evidence** (locally monitored conditions) and **demands** (guarantees that
must currently be offered by other ConSerts it composes with). Evaluation
selects the strongest satisfiable guarantee, falling back to an
unconditional default — e.g. "Emergency Landing" in the paper's Fig. 1.

Composition is hierarchical and dynamic: demands bind to provider ConSerts
at integration time and re-resolve every evaluation, which is exactly the
"runtime assurance" shift the EDDI concept is built on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

Node = Union["RuntimeEvidence", "Demand", "AndNode", "OrNode"]


@dataclass
class RuntimeEvidence:
    """A monitored boolean condition feeding a ConSert tree.

    ``value`` is updated by the hosting EDDI each cycle (e.g. "SafeML
    confidence is HIGH", "GPS quality ok", "no spoofing detected").
    """

    name: str
    value: bool = False
    description: str = ""

    def set(self, value: bool) -> None:
        """Update the monitored value."""
        self.value = bool(value)

    def satisfied(self) -> bool:
        """Current truth value."""
        return self.value


@dataclass
class Demand:
    """A requirement on guarantees offered by other ConSerts.

    Satisfied when any bound provider currently offers a guarantee whose
    name is in ``accepted_guarantees``.
    """

    name: str
    accepted_guarantees: frozenset[str]
    providers: list["ConSert"] = field(default_factory=list)
    description: str = ""

    def satisfied(self) -> bool:
        """Whether any bound provider offers an accepted guarantee now."""
        for provider in self.providers:
            offered = provider.evaluate()
            if offered is not None and offered.name in self.accepted_guarantees:
                return True
        return False


@dataclass
class AndNode:
    """All children must be satisfied."""

    children: list[Node]

    def satisfied(self) -> bool:
        """Conjunction over children."""
        return all(child.satisfied() for child in self.children)


@dataclass
class OrNode:
    """At least one child must be satisfied."""

    children: list[Node]

    def satisfied(self) -> bool:
        """Disjunction over children."""
        return any(child.satisfied() for child in self.children)


@dataclass
class Guarantee:
    """One conditional guarantee of a ConSert.

    ``condition=None`` marks an unconditional (default) guarantee. ``rank``
    is informational; the offering order is the position in the ConSert's
    guarantee list (first = strongest).
    """

    name: str
    condition: Node | None = None
    description: str = ""
    rank: int = 0

    def satisfied(self) -> bool:
        """Whether this guarantee can currently be offered."""
        return True if self.condition is None else self.condition.satisfied()


@dataclass
class ConSert:
    """An ordered set of guarantees for one component or service.

    ``evaluate()`` returns the first (strongest) satisfiable guarantee.
    A well-formed ConSert ends with an unconditional default so evaluation
    never comes back empty; ``evaluate`` returns ``None`` only for
    ill-formed certificates with no satisfiable guarantee.
    """

    name: str
    guarantees: list[Guarantee] = field(default_factory=list)

    def __post_init__(self) -> None:
        for rank, guarantee in enumerate(self.guarantees):
            guarantee.rank = rank

    def evaluate(self) -> Guarantee | None:
        """The strongest currently satisfiable guarantee, or None."""
        for guarantee in self.guarantees:
            if guarantee.satisfied():
                return guarantee
        return None

    def guarantee_names(self) -> list[str]:
        """Names of all guarantees, strongest first."""
        return [g.name for g in self.guarantees]

    def evidence_nodes(self) -> list[RuntimeEvidence]:
        """Every RuntimeEvidence leaf reachable from this ConSert's trees."""
        # Demands stop the walk: their providers own their own evidence.
        return self._leaves(RuntimeEvidence)

    def demand_nodes(self) -> list[Demand]:
        """Every Demand leaf in this ConSert's trees."""
        return self._leaves(Demand)

    def _leaves(self, kind: type) -> list:
        """Nodes of type ``kind`` in the guarantee trees, depth-first preorder.

        Each node is visited once, on its first occurrence, in guarantee
        order then child order. An explicit stack walks the tree: a
        self-recursive closure would be a reference cycle per call.
        """
        found = []
        seen: set[int] = set()
        stack = [
            g.condition for g in reversed(self.guarantees) if g.condition is not None
        ]
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            if isinstance(node, kind):
                found.append(node)
            elif isinstance(node, (AndNode, OrNode)):
                stack.extend(reversed(node.children))
        return found
