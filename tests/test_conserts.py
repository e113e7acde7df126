"""Unit tests for the ConSert model and its composition semantics."""

from dataclasses import FrozenInstanceError

import pytest

from repro.core.conserts import (
    AndNode,
    ConSert,
    Demand,
    Guarantee,
    OrNode,
    RuntimeEvidence,
    flatten,
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


def holds(condition) -> bool:
    """Whether ``condition`` holds, read through a one-guarantee ConSert."""
    probe = ConSert(name="probe", guarantees=[Guarantee("held", condition)])
    return probe.evaluate() is not None


class TestRuntimeEvidence:
    def test_set_and_read(self):
        ev = RuntimeEvidence("x")
        assert not holds(ev)
        ev.set(True)
        assert holds(ev)

    def test_set_coerces_to_bool(self):
        ev = RuntimeEvidence("x")
        ev.set(1)
        assert ev.value is True


class TestGates:
    def test_and_node(self):
        a, b = RuntimeEvidence("a", True), RuntimeEvidence("b", False)
        assert not holds(AndNode([a, b]))
        b.set(True)
        assert holds(AndNode([a, b]))

    def test_or_node(self):
        a, b = RuntimeEvidence("a", False), RuntimeEvidence("b", False)
        assert not holds(OrNode([a, b]))
        a.set(True)
        assert holds(OrNode([a, b]))

    def test_nested_gates(self):
        a = RuntimeEvidence("a", True)
        b = RuntimeEvidence("b", False)
        c = RuntimeEvidence("c", True)
        assert holds(AndNode([a, OrNode([b, c])]))

    def test_empty_gates(self):
        assert holds(AndNode([]))
        assert not holds(OrNode([]))

    def test_children_are_fixed_at_construction(self):
        children = [RuntimeEvidence("a", True)]
        gate = AndNode(children)
        children.append(RuntimeEvidence("b", False))
        assert gate.children == (children[0],)
        assert holds(gate)

    def test_tree_shape_cannot_be_rebound(self):
        # A ConSert caches its flattened program, so a rebinding after the
        # first evaluation would leave it stale; the types refuse it instead.
        evidence = RuntimeEvidence("a", True)
        gate = AndNode([evidence])
        demand = Demand("d", frozenset({"go"}))
        guarantee = Guarantee("go", gate)
        consert = ConSert("c", guarantees=[guarantee, Guarantee("stop")])
        assert consert.evaluate().name == "go"
        for node, attribute, value in [
            (gate, "children", ()),
            (demand, "providers", (consert,)),
            (guarantee, "condition", None),
            (consert, "guarantees", ()),
        ]:
            with pytest.raises(FrozenInstanceError):
                setattr(node, attribute, value)
        evidence.set(False)
        assert consert.evaluate().name == "stop"


class TestDemand:
    def test_satisfied_by_bound_provider(self):
        provider, _ = provider_consert(offering=True)
        assert holds(Demand("d", frozenset({"service_ok"}), [provider]))

    def test_unbound_demand_is_never_satisfied(self):
        assert not holds(Demand("d", frozenset({"service_ok"})))

    def test_unsatisfied_when_provider_degrades(self):
        provider, ev = provider_consert(offering=True)
        demand = Demand("d", frozenset({"service_ok"}), [provider])
        ev.set(False)
        assert not holds(demand)

    def test_accepts_alternative_guarantees(self):
        provider, ev = provider_consert(offering=False)
        demand = Demand("d", frozenset({"service_ok", "service_degraded"}), [provider])
        assert holds(demand)  # degraded is also acceptable

    def test_any_of_multiple_providers(self):
        p1, ev1 = provider_consert(offering=False)
        p2, ev2 = provider_consert(offering=True)
        demand = Demand("d", frozenset({"service_ok"}), [p1, p2])
        assert holds(demand)
        ev2.set(False)
        assert not holds(demand)
        ev1.set(True)
        assert holds(demand)

    def test_provider_offering_nothing_satisfies_no_demand(self):
        silent = ConSert(
            name="silent",
            guarantees=[Guarantee("only", AndNode([RuntimeEvidence("e", False)]))],
        )
        assert not holds(Demand("d", frozenset({"only"}), [silent]))


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

    def test_unbound_at_construction_offers_the_default(self):
        # Providers are bound when the demand is built: an unbound demand
        # stays unbound, and the consumer offers its default.
        provider, _ = provider_consert()
        unbound = ConSert(
            name="consumer",
            guarantees=[
                Guarantee("go", AndNode([Demand("d", frozenset({"service_ok"}))])),
                Guarantee("stop", None),
            ],
        )
        assert unbound.evaluate().name == "stop"
        assert unbound.demand_nodes()[0].providers == ()
        bound = ConSert(
            name="consumer",
            guarantees=[
                Guarantee(
                    "go",
                    AndNode([Demand("d", frozenset({"service_ok"}), [provider])]),
                ),
                Guarantee("stop", None),
            ],
        )
        assert bound.evaluate().name == "go"

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


def _reference_offer(consert: ConSert) -> int:
    """The recursive walk, kept as the flat evaluator's oracle."""
    for index, guarantee in enumerate(consert.guarantees):
        if guarantee.condition is None or _reference_holds(guarantee.condition):
            return index
    return -1


def _reference_holds(node) -> bool:
    if isinstance(node, RuntimeEvidence):
        return node.value
    if isinstance(node, Demand):
        return any(
            (index := _reference_offer(provider)) >= 0
            and provider.guarantees[index].name in node.accepted_guarantees
            for provider in node.providers
        )
    if isinstance(node, AndNode):
        return all(_reference_holds(child) for child in node.children)
    return any(_reference_holds(child) for child in node.children)


class TestFlatten:
    def test_providers_come_first_once_and_the_root_last(self):
        sensor, _ = provider_consert()
        left = ConSert(
            "left",
            guarantees=[
                Guarantee("ok", Demand("s", frozenset({"service_ok"}), [sensor])),
                Guarantee("bad", None),
            ],
        )
        right = ConSert(
            "right",
            guarantees=[
                Guarantee("ok", Demand("s", frozenset({"service_ok"}), [sensor])),
                Guarantee("bad", None),
            ],
        )
        root = ConSert(
            "root",
            guarantees=[
                Guarantee(
                    "go",
                    AndNode([
                        Demand("l", frozenset({"ok"}), [left]),
                        Demand("r", frozenset({"ok"}), [right]),
                    ]),
                ),
                Guarantee("stop", None),
            ],
        )
        flat = flatten(root)
        assert [c.name for c in flat.conserts] == ["provider", "left", "right", "root"]
        assert [e.name for e in flat.evidence] == ["provider_ok"]
        assert flat.program(True) == (0, 0, 0, 0)
        assert flat.program(False) == (1, 1, 1, 1)

    def test_rejects_a_demand_cycle(self):
        demand = Demand("d", frozenset({"go"}))
        a = ConSert("a", guarantees=[Guarantee("go", demand), Guarantee("stop")])
        b = ConSert(
            "b",
            guarantees=[
                Guarantee("go", Demand("a", frozenset({"go"}), [a])),
                Guarantee("stop"),
            ],
        )
        # The frozen types forbid this rebinding; force it to close a -> b -> a.
        object.__setattr__(demand, "providers", (b,))
        with pytest.raises(ValueError, match="cycle"):
            flatten(a)
        with pytest.raises(ValueError, match="cycle"):
            b.evaluate()

    def test_rejects_a_foreign_condition_node(self):
        consert = ConSert("c", guarantees=[Guarantee("g", "not a node")])
        with pytest.raises(TypeError, match="condition node"):
            flatten(consert)

    def test_no_satisfiable_guarantee_is_minus_one(self):
        ev = RuntimeEvidence("e")
        flat = flatten(ConSert("c", guarantees=[Guarantee("only", ev)]))
        assert flat.program(False) == (-1,)
        assert flat.program(True) == (0,)
        assert flatten(ConSert("empty")).program() == (-1,)

    def test_guarantees_after_the_default_are_unreachable(self):
        ev = RuntimeEvidence("e", True)
        consert = ConSert(
            "c",
            guarantees=[Guarantee("default"), Guarantee("never", ev)],
        )
        assert flatten(consert).program(True) == (0,)

    @pytest.mark.parametrize("consert", _paper_conserts(), ids=lambda c: c.name)
    def test_matches_the_recursive_walk_on_random_evidence(self, consert):
        import random

        flat = flatten(consert)
        rng = random.Random(5)
        for _ in range(200):
            for node in flat.evidence:
                node.value = rng.random() < 0.6
            expected = tuple(_reference_offer(c) for c in flat.conserts)
            assert flat.program(*[node.value for node in flat.evidence]) == expected
            assert consert.evaluate() is consert.guarantees[expected[-1]]


class TestSwarmMissionDecider:
    def _decider(self, *squad_ids):
        from repro.core.squad import SquadConSert, SwarmMissionDecider

        decider = SwarmMissionDecider()
        for squad_id in squad_ids:
            decider.add_squad(SquadConSert(squad_id))
        return decider

    def test_mission_consert_is_built_once_per_roster(self):
        decider = self._decider("a", "b")
        assert decider.decide().verdict == "swarm_as_planned"
        mission = decider._mission
        decider.squads["a"].update(False, 0, 2)
        assert decider.decide().verdict == "swarm_rehome_needed"
        assert decider._mission is mission

    def test_a_roster_change_rebuilds_the_mission_consert(self):
        from repro.core.squad import SquadConSert

        decider = self._decider("a", "b")
        decider.squads["a"].update(False, 0, 2)
        assert decider.decide().verdict == "swarm_rehome_needed"
        del decider.squads["a"]
        decision = decider.decide()
        assert decision.verdict == "swarm_as_planned"
        assert decision.squad_guarantees == {"b": "squad_tasking_full"}
        # A new squad under a known id is a new roster too.
        replacement = SquadConSert("b")
        replacement.update(True, 1, 2)
        decider.add_squad(replacement)
        assert decider.decide().verdict == "swarm_tasking_degraded"
        decider.squads["b"].update(False, 0, 2)
        assert decider.decide().verdict == "swarm_lost"
