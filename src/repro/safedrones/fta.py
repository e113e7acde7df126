"""Fault-tree analysis with complex basic events.

SafeDrones "introduces the concept of complex basic event in Fault Tree
Analysis" (Sec. III-A1, citing Kabir et al., IMBSA 2019): a fault-tree
leaf whose probability is not a constant but the output of a dynamic model
(here: a Markov chain or any object exposing ``failure_probability``).
The tree is evaluated bottom-up under the usual independence assumption.
The SafeDrones monitor's UAV-loss tree is an OR gate over complex basic
events.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, Union


class FailureModel(Protocol):
    """Anything exposing a current probability of failure."""

    @property
    def failure_probability(self) -> float: ...


Node = Union["ComplexBasicEvent", "OrGate"]


@dataclass
class ComplexBasicEvent:
    """A leaf backed by a dynamic failure model (Markov chain, hazard model).

    The probability is read lazily from ``model.failure_probability`` each
    evaluation, so the tree always reflects the latest runtime update.
    """

    name: str
    model: FailureModel

    def evaluate(self) -> float:
        """Read the current probability from the backing model."""
        p = float(self.model.failure_probability)
        if not 0.0 <= p <= 1.0 + 1e-9:
            raise ValueError(f"{self.name}: model probability {p} out of range")
        return 1.0 if p > 1.0 else p


@dataclass
class OrGate:
    """Output fails if *any* child fails (independence assumed)."""

    name: str
    children: list[Node] = field(default_factory=list)

    def evaluate(self) -> float:
        """Complement-product of child survival probabilities."""
        survive = 1.0
        for child in self.children:
            survive *= 1.0 - child.evaluate()
        return 1.0 - survive


@dataclass
class FaultTree:
    """A named fault tree with a single top event."""

    name: str
    top: Node

    def top_event_probability(self) -> float:
        """Evaluate the tree bottom-up and return the top-event probability."""
        return self.top.evaluate()
