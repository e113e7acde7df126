"""Tests for arrangement-calibrated propulsion chains."""

import numpy as np
import pytest

from repro.safedrones.arrangement import ArrangementAnalysis
from repro.safedrones.propulsion import (
    PropulsionModel,
    motor_chain_from_survival,
)


class TestArrangementCalibratedChain:
    @pytest.fixture(scope="class")
    def hexa(self):
        return ArrangementAnalysis(rotor_count=6)

    def test_chain_reflects_survival_table(self, hexa):
        chain = motor_chain_from_survival(6, hexa.survival_by_count)
        # The hexa survival table tolerates up to 2 failures for some
        # combinations -> states ok_6, ok_5, ok_4, failed.
        assert chain.states == ["ok_6", "ok_5", "ok_4", "failed"]

    def test_from_arrangement_uses_exact_table(self, hexa):
        model = PropulsionModel.from_arrangement(hexa)
        assert model.chain.states == ["ok_6", "ok_5", "ok_4", "failed"]
        # First failure is always survivable for the PNPNPN hexa.
        assert model.reconfig_success == pytest.approx(1.0)

    def test_two_failures_still_possibly_controllable(self, hexa):
        model = PropulsionModel.from_arrangement(hexa)
        model.record_motor_failure()
        model.record_motor_failure()
        assert model.controllable
        assert 0.0 < model.failure_probability(3600.0) < 1.0

    def test_three_failures_fatal(self, hexa):
        model = PropulsionModel.from_arrangement(hexa)
        for _ in range(3):
            model.record_motor_failure()
        assert not model.controllable
        assert model.failure_probability(1.0) == 1.0

    def test_arrangement_model_less_optimistic_than_perfect_reconfig(self, hexa):
        arrangement_model = PropulsionModel.from_arrangement(hexa)
        perfect = PropulsionModel(rotor_count=6, reconfig_success=1.0)
        horizon = 8 * 3600.0
        # The default table stops at 1 tolerated failure; the arrangement
        # chain continues to 2 but with combination-dependent loss — the
        # two models must both be sane, and the arrangement one sits
        # between the naive table and the perfect-reconfig fantasy.
        naive = PropulsionModel(rotor_count=6, reconfig_success=1.0)
        naive_pof = naive.failure_probability(horizon)
        arrangement_pof = arrangement_model.failure_probability(horizon)
        assert 0.0 < arrangement_pof < 1.0
        # Tolerating a second failure (partially) beats the 1-failure table.
        assert arrangement_pof < naive_pof

    def test_memo_tracks_arrangement_chain(self, hexa):
        model = PropulsionModel.from_arrangement(hexa)
        horizon = 8 * 3600.0

        def uncached():
            state = f"ok_{model.rotor_count - model.motors_failed}"
            if state not in model.chain.states:
                return 1.0
            return model.chain.failure_probability(
                np.eye(len(model.chain.states))[model.chain.index(state)], horizon
            )

        for _ in range(4):
            assert model.failure_probability(horizon) == uncached()
            model.record_motor_failure()
        assert model.failure_probability(horizon) == 1.0

    def test_memo_dropped_when_chain_replaced(self, hexa):
        model = PropulsionModel(rotor_count=6)
        horizon = 8 * 3600.0
        default_pof = model.failure_probability(horizon)
        model.chain = motor_chain_from_survival(6, hexa.survival_by_count)
        calibrated = model.chain.failure_probability(np.eye(4)[0], horizon)
        assert calibrated != default_pof
        assert model.failure_probability(horizon) == calibrated

    def test_quad_arrangement_matches_table(self):
        quad = ArrangementAnalysis(rotor_count=4)
        model = PropulsionModel.from_arrangement(quad)
        assert model.chain.states == ["ok_4", "failed"]
        model.record_motor_failure()
        assert not model.controllable
