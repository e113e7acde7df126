"""Unit tests for fault trees with complex basic events."""

from dataclasses import dataclass

import pytest

from repro.safedrones.fta import ComplexBasicEvent, FaultTree, OrGate


@dataclass
class FakeModel:
    failure_probability: float = 0.25


def event(name: str, p: float) -> ComplexBasicEvent:
    return ComplexBasicEvent(name, FakeModel(p))


class TestComplexBasicEvent:
    def test_reads_model_lazily(self):
        model = FakeModel(0.1)
        leaf = ComplexBasicEvent("c", model)
        assert leaf.evaluate() == 0.1
        model.failure_probability = 0.8
        assert leaf.evaluate() == 0.8

    def test_rejects_bad_model_output(self):
        with pytest.raises(ValueError):
            ComplexBasicEvent("c", FakeModel(2.0)).evaluate()


class TestGates:
    def test_or_gate_inclusion_exclusion(self):
        gate = OrGate("g", [event("a", 0.5), event("b", 0.4)])
        assert gate.evaluate() == pytest.approx(0.7)

    def test_empty_or_gate_is_impossible(self):
        assert OrGate("g", []).evaluate() == 0.0


class TestFaultTree:
    def test_top_event_probability(self):
        tree = FaultTree(
            name="uav_loss",
            top=OrGate(
                "loss",
                [OrGate("nav", [event("gps", 0.1), event("vision", 0.2)]),
                 event("battery", 0.05)],
            ),
        )
        expected = 1.0 - (1.0 - 0.1) * (1.0 - 0.2) * (1.0 - 0.05)
        assert tree.top_event_probability() == pytest.approx(expected)

    def test_complex_event_updates_flow_through(self):
        model = FakeModel(0.0)
        tree = FaultTree("t", top=ComplexBasicEvent("c", model))
        assert tree.top_event_probability() == 0.0
        model.failure_probability = 0.42
        assert tree.top_event_probability() == 0.42
