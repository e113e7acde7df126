"""Unit tests for the ConSert model and its composition semantics."""

import pytest

from repro.core.conserts import (
    AndNode,
    ConSert,
    Demand,
    Guarantee,
    OrNode,
    RuntimeEvidence,
)


def provider_consert(offering=True):
    ev = RuntimeEvidence("provider_ok", offering)
    return (
        ConSert(
            name="provider",
            guarantees=[
                Guarantee("service_ok", AndNode([ev])),
                Guarantee("service_degraded", None),
            ],
        ),
        ev,
    )


class TestRuntimeEvidence:
    def test_set_and_read(self):
        ev = RuntimeEvidence("x")
        assert not ev.satisfied()
        ev.set(True)
        assert ev.satisfied()

    def test_set_coerces_to_bool(self):
        ev = RuntimeEvidence("x")
        ev.set(1)
        assert ev.value is True


class TestGates:
    def test_and_node(self):
        a, b = RuntimeEvidence("a", True), RuntimeEvidence("b", False)
        assert not AndNode([a, b]).satisfied()
        b.set(True)
        assert AndNode([a, b]).satisfied()

    def test_or_node(self):
        a, b = RuntimeEvidence("a", False), RuntimeEvidence("b", False)
        assert not OrNode([a, b]).satisfied()
        a.set(True)
        assert OrNode([a, b]).satisfied()

    def test_nested_gates(self):
        a = RuntimeEvidence("a", True)
        b = RuntimeEvidence("b", False)
        c = RuntimeEvidence("c", True)
        tree = AndNode([a, OrNode([b, c])])
        assert tree.satisfied()


class TestDemand:
    def test_satisfied_by_bound_provider(self):
        provider, _ = provider_consert(offering=True)
        demand = Demand("d", frozenset({"service_ok"}))
        assert not demand.satisfied()  # unbound
        demand.providers.append(provider)
        assert demand.satisfied()

    def test_unsatisfied_when_provider_degrades(self):
        provider, ev = provider_consert(offering=True)
        demand = Demand("d", frozenset({"service_ok"}), [provider])
        ev.set(False)
        assert not demand.satisfied()

    def test_accepts_alternative_guarantees(self):
        provider, ev = provider_consert(offering=False)
        demand = Demand("d", frozenset({"service_ok", "service_degraded"}), [provider])
        assert demand.satisfied()  # degraded is also acceptable

    def test_any_of_multiple_providers(self):
        p1, ev1 = provider_consert(offering=False)
        p2, _ = provider_consert(offering=True)
        demand = Demand("d", frozenset({"service_ok"}))
        demand.providers += [p1, p2]
        assert demand.satisfied()


class TestConSert:
    def test_strongest_guarantee_wins(self):
        strong_ev = RuntimeEvidence("strong", True)
        consert = ConSert(
            name="c",
            guarantees=[
                Guarantee("strong", AndNode([strong_ev])),
                Guarantee("weak", None),
            ],
        )
        assert consert.evaluate().name == "strong"
        strong_ev.set(False)
        assert consert.evaluate().name == "weak"

    def test_default_guarantee_always_offered(self):
        consert = ConSert(name="c", guarantees=[Guarantee("default", None)])
        assert consert.evaluate().name == "default"

    def test_no_satisfiable_guarantee_returns_none(self):
        consert = ConSert(
            name="c",
            guarantees=[Guarantee("only", AndNode([RuntimeEvidence("e", False)]))],
        )
        assert consert.evaluate() is None

    def test_ranks_assigned_in_order(self):
        consert = ConSert(
            name="c",
            guarantees=[Guarantee("a", None), Guarantee("b", None)],
        )
        assert [g.rank for g in consert.guarantees] == [0, 1]

    def test_evidence_nodes_enumeration(self):
        a, b = RuntimeEvidence("a"), RuntimeEvidence("b")
        consert = ConSert(
            name="c",
            guarantees=[Guarantee("g", AndNode([a, OrNode([b])]))],
        )
        assert {e.name for e in consert.evidence_nodes()} == {"a", "b"}

    def test_unbound_demand_falls_back_until_bound(self):
        # An integrator may bind a demand after the consumer is built;
        # meanwhile the consumer offers its default.
        provider, _ = provider_consert()
        demand = Demand("d", frozenset({"service_ok"}))
        consumer = ConSert(
            name="consumer",
            guarantees=[Guarantee("go", AndNode([demand])), Guarantee("stop", None)],
        )
        assert consumer.evaluate().name == "stop"
        assert consumer.demand_nodes()[0].providers == []
        demand.providers.append(provider)
        assert consumer.evaluate().name == "go"

    def test_demand_nodes_enumeration(self):
        provider, _ = provider_consert()
        demand = Demand("d", frozenset({"service_ok"}), [provider])
        consert = ConSert(name="c", guarantees=[Guarantee("g", AndNode([demand]))])
        assert consert.demand_nodes() == [demand]

    def test_shared_evidence_not_duplicated(self):
        a = RuntimeEvidence("a")
        consert = ConSert(
            name="c",
            guarantees=[
                Guarantee("g1", AndNode([a])),
                Guarantee("g2", OrNode([a])),
            ],
        )
        assert len(consert.evidence_nodes()) == 1

    def test_three_level_composition(self):
        # sensor -> localization -> navigation chain re-evaluates live.
        sensor_ev = RuntimeEvidence("sensor_ok", True)
        sensor = ConSert(
            "sensor",
            guarantees=[
                Guarantee("sensor_ok", AndNode([sensor_ev])),
                Guarantee("sensor_bad", None),
            ],
        )
        localization = ConSert(
            "loc",
            guarantees=[
                Guarantee(
                    "loc_ok",
                    AndNode([Demand("s", frozenset({"sensor_ok"}), [sensor])]),
                ),
                Guarantee("loc_bad", None),
            ],
        )
        navigation = ConSert(
            "nav",
            guarantees=[
                Guarantee(
                    "nav_ok",
                    AndNode([Demand("l", frozenset({"loc_ok"}), [localization])]),
                ),
                Guarantee("nav_bad", None),
            ],
        )
        assert navigation.evaluate().name == "nav_ok"
        sensor_ev.set(False)
        assert navigation.evaluate().name == "nav_bad"


def _recursive_leaves(consert: ConSert, kind: type) -> list:
    """The leaf walk as first written: a self-recursive closure (the oracle)."""
    found: list = []
    seen: set[int] = set()

    def walk(node) -> None:
        if id(node) in seen:
            return
        seen.add(id(node))
        if isinstance(node, kind):
            found.append(node)
        elif isinstance(node, (AndNode, OrNode)):
            for child in node.children:
                walk(child)

    for guarantee in consert.guarantees:
        if guarantee.condition is not None:
            walk(guarantee.condition)
    return found


def _ids(nodes: list) -> list[int]:
    return [id(node) for node in nodes]


def _paper_conserts() -> list[ConSert]:
    """Every ConSert of a UAV network, a squad and the swarm mission."""
    import dataclasses

    from repro.core.squad import SquadConSert, SwarmMissionDecider
    from repro.core.uav_network import UavConSertNetwork

    network = UavConSertNetwork(uav_id="uav1")
    conserts = [
        getattr(network, f.name) for f in dataclasses.fields(network)
        if isinstance(getattr(network, f.name, None), ConSert)
    ]
    decider = SwarmMissionDecider()
    for squad_id in ("lead01", "lead00"):
        squad = SquadConSert(squad_id)
        decider.add_squad(squad)
        conserts.append(squad.consert)
    conserts.append(decider._mission_consert())
    return conserts


class TestLeafWalk:
    """``evidence_nodes``/``demand_nodes`` walk with a stack, in the same order."""

    @pytest.mark.parametrize("consert", _paper_conserts(), ids=lambda c: c.name)
    def test_same_nodes_in_the_same_order_as_the_recursive_walk(self, consert):
        assert _ids(consert.evidence_nodes()) == _ids(
            _recursive_leaves(consert, RuntimeEvidence)
        )
        assert _ids(consert.demand_nodes()) == _ids(_recursive_leaves(consert, Demand))

    def test_the_paper_networks_have_leaves_of_both_kinds(self):
        conserts = _paper_conserts()
        assert sum(len(c.evidence_nodes()) for c in conserts) > 10
        assert sum(len(c.demand_nodes()) for c in conserts) > 10

    def test_shared_nodes_are_listed_once_at_their_first_visit(self):
        a, b, c = (RuntimeEvidence(name) for name in "abc")
        shared = OrNode([b, a])
        consert = ConSert(
            "diamond",
            guarantees=[
                Guarantee("g1", AndNode([shared, c, AndNode([a, shared])])),
                Guarantee("g2", AndNode([c, b])),
                Guarantee("default", None),
            ],
        )
        assert [e.name for e in consert.evidence_nodes()] == ["b", "a", "c"]
        assert _ids(consert.evidence_nodes()) == _ids(
            _recursive_leaves(consert, RuntimeEvidence)
        )

    def test_a_deep_tree_walks_without_recursion(self):
        import sys

        node = leaf = RuntimeEvidence("deep")
        for _ in range(sys.getrecursionlimit() + 100):
            node = AndNode([node])
        consert = ConSert("deep", guarantees=[Guarantee("g", node)])
        assert consert.evidence_nodes() == [leaf]
