"""Conditional Safety Certificates (ConSerts).

Implements the ConSerts runtime model (Reich et al., SAFECOMP 2020, cited
as the paper's integrating technology): a component offers an ordered list
of **guarantees**, each conditioned on a boolean tree over **runtime
evidence** (locally monitored conditions) and **demands** (guarantees that
must currently be offered by other ConSerts it composes with). Evaluation
selects the strongest satisfiable guarantee, falling back to an
unconditional default — e.g. "Emergency Landing" in the paper's Fig. 1.

Composition is hierarchical: demands bind to provider ConSerts when the
demand is built, and the shape of every tree is fixed from then on:
ConSerts, guarantees, gates and demands are frozen, their sequences are
tuples, and rebinding one raises ``FrozenInstanceError``. Only the
evidence values change at runtime, which is the "runtime assurance" shift
the EDDI concept is built on.

There is one evaluator. :func:`flatten` walks a root ConSert and every
provider it reaches once, orders them providers first, and generates one
straight-line function from the evidence values to every ConSert's
offered guarantee index. Each provider is computed once per pass, however
many demands read it. :meth:`ConSert.evaluate` builds that program on its
first call and reuses it; the batched assurance plane runs the program of
one template network once per UAV row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Union

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


@dataclass(frozen=True)
class Demand:
    """A requirement on guarantees offered by other ConSerts.

    Satisfied when any provider currently offers a guarantee whose name is
    in ``accepted_guarantees``; a demand with no providers never is.
    """

    name: str
    accepted_guarantees: frozenset[str]
    providers: tuple["ConSert", ...] = ()
    description: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "providers", tuple(self.providers))


@dataclass(frozen=True)
class AndNode:
    """All children must be satisfied."""

    children: tuple[Node, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "children", tuple(self.children))


@dataclass(frozen=True)
class OrNode:
    """At least one child must be satisfied."""

    children: tuple[Node, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "children", tuple(self.children))


@dataclass(frozen=True)
class Guarantee:
    """One conditional guarantee of a ConSert.

    ``condition=None`` marks an unconditional (default) guarantee. ``rank``
    is informational, set by the ConSert that lists the guarantee; the
    offering order is the position in that list (first = strongest).
    """

    name: str
    condition: Node | None = None
    description: str = ""
    rank: int = 0


@dataclass(frozen=True)
class ConSert:
    """An ordered set of guarantees for one component or service.

    ``evaluate()`` returns the first (strongest) satisfiable guarantee.
    A well-formed ConSert ends with an unconditional default so evaluation
    never comes back empty; ``evaluate`` returns ``None`` only for
    ill-formed certificates with no satisfiable guarantee.
    """

    name: str
    guarantees: tuple[Guarantee, ...] = ()
    _program: tuple | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "guarantees", tuple(self.guarantees))
        for rank, guarantee in enumerate(self.guarantees):
            object.__setattr__(guarantee, "rank", rank)

    def evaluate(self) -> Guarantee | None:
        """The strongest currently satisfiable guarantee, or None."""
        if self._program is None:
            flat = flatten(self)
            # Cache the program and its inputs, not ``flat``: it lists this
            # ConSert, so holding it here would be a reference cycle. The
            # frozen tree types keep the cached program in step with it.
            object.__setattr__(self, "_program", (flat.program, flat.evidence))
        program, evidence = self._program
        index = program(*[node.value for node in evidence])[-1]
        return self.guarantees[index] if index >= 0 else None

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


@dataclass(frozen=True)
class FlatConSerts:
    """A ConSert network flattened into one straight-line program.

    ``conserts`` holds the root and every provider it reaches, each
    provider before the ConSerts that demand it, so the root is last.
    ``program`` takes one value per node of ``evidence``, in order, and
    returns the index of the guarantee each ConSert offers, in
    ``conserts`` order (``-1`` where a ConSert offers none).
    """

    conserts: tuple[ConSert, ...]
    evidence: tuple[RuntimeEvidence, ...]
    program: Callable[..., tuple[int, ...]]


def flatten(root: ConSert) -> FlatConSerts:
    """Flatten ``root`` and every ConSert it demands into one program.

    Raises ``ValueError`` if the demands form a cycle, and ``TypeError``
    on a condition node that is not evidence, a demand or a gate.
    """
    conserts: list[ConSert] = []
    _demand_order(root, conserts, set(), set())
    slot = {id(consert): k for k, consert in enumerate(conserts)}
    evidence: list[RuntimeEvidence] = []
    inputs: dict[int, str] = {}
    for consert in conserts:
        for node in consert.evidence_nodes():
            if id(node) not in inputs:
                inputs[id(node)] = f"v{len(evidence)}"
                evidence.append(node)

    lines = [f"def program({', '.join(inputs.values())}):"]
    for k, consert in enumerate(conserts):
        keyword = "if"
        default = -1  # offered when no condition holds
        for index, guarantee in enumerate(consert.guarantees):
            if guarantee.condition is None:
                default = index  # later guarantees are unreachable
                break
            condition = _expression(guarantee.condition, inputs, slot)
            lines += [f"    {keyword} {condition}:", f"        o{k} = {index}"]
            keyword = "elif"
        if keyword == "if":
            lines.append(f"    o{k} = {default}")
        else:
            lines += ["    else:", f"        o{k} = {default}"]
    lines.append(f"    return ({''.join(f'o{k}, ' for k in range(len(conserts)))})")
    namespace: dict = {}
    exec(compile("\n".join(lines), "<flattened ConSerts>", "exec"), namespace)
    # Popped so the function's globals do not hold the function itself.
    return FlatConSerts(tuple(conserts), tuple(evidence), namespace.pop("program"))


def _demand_order(
    consert: ConSert, order: list[ConSert], placed: set[int], open_: set[int]
) -> None:
    """Append ``consert``'s providers, then ``consert``, to ``order``."""
    if id(consert) in placed:
        return
    if id(consert) in open_:
        raise ValueError(f"ConSert demand cycle through {consert.name!r}")
    open_.add(id(consert))
    for demand in consert.demand_nodes():
        for provider in demand.providers:
            _demand_order(provider, order, placed, open_)
    open_.discard(id(consert))
    placed.add(id(consert))
    order.append(consert)


def _expression(node: Node, inputs: dict[int, str], slot: dict[int, int]) -> str:
    """Python source for one condition node of a flattened program."""
    if isinstance(node, RuntimeEvidence):
        return inputs[id(node)]
    if isinstance(node, Demand):
        terms = []
        for provider in node.providers:
            accepted = [
                index
                for index, guarantee in enumerate(provider.guarantees)
                if guarantee.name in node.accepted_guarantees
            ]
            offer = f"o{slot[id(provider)]}"
            if len(accepted) == 1:
                terms.append(f"{offer} == {accepted[0]}")
            elif accepted:
                terms.append(f"{offer} in {tuple(accepted)}")
        return _join(terms, "or")
    if isinstance(node, AndNode):
        return _join([_expression(c, inputs, slot) for c in node.children], "and")
    if isinstance(node, OrNode):
        return _join([_expression(c, inputs, slot) for c in node.children], "or")
    raise TypeError(f"not a ConSert condition node: {type(node)!r}")


def _join(terms: list[str], operator: str) -> str:
    if not terms:
        return "True" if operator == "and" else "False"
    if len(terms) == 1:
        return terms[0]
    return "(" + f" {operator} ".join(terms) + ")"

