"""Unit tests for motor-arrangement analysis."""

import pytest

from repro.safedrones.arrangement import (
    ArrangementAnalysis,
    is_controllable,
    regular_airframe,
)


class TestArrangement:
    def test_rejects_odd_or_tiny_airframes(self):
        with pytest.raises(ValueError):
            regular_airframe(5)
        with pytest.raises(ValueError):
            regular_airframe(2)

    def test_alternating_spin_balances(self):
        motors = regular_airframe(6)
        assert sum(m.spin for m in motors) == 0

    def test_intact_airframes_controllable(self):
        for n in (4, 6, 8):
            motors = regular_airframe(n)
            assert is_controllable(motors, frozenset())

    def test_quad_dies_on_any_single_failure(self):
        motors = regular_airframe(4)
        for i in range(4):
            assert not is_controllable(motors, frozenset({i}))

    def test_hexa_survives_any_single_failure(self):
        motors = regular_airframe(6)
        for i in range(6):
            assert is_controllable(motors, frozenset({i}))

    def test_hexa_two_failures_combination_dependent(self):
        analysis = ArrangementAnalysis(rotor_count=6)
        p2 = analysis.survival_by_count[2]
        assert 0.0 < p2 < 1.0  # some pairs survivable, some fatal

    def test_survival_by_count_monotone(self):
        analysis = ArrangementAnalysis(rotor_count=6)
        values = [analysis.survival_by_count[n] for n in range(7)]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_guaranteed_vs_max_tolerable(self):
        quad = ArrangementAnalysis(rotor_count=4)
        hexa = ArrangementAnalysis(rotor_count=6)
        octa = ArrangementAnalysis(rotor_count=8)
        assert quad.guaranteed_tolerable_failures() == 0
        assert hexa.guaranteed_tolerable_failures() == 1
        assert octa.guaranteed_tolerable_failures() >= 1
        assert hexa.max_tolerable_failures() >= 2

    def test_effective_reconfig_success_in_unit_interval(self):
        analysis = ArrangementAnalysis(rotor_count=6)
        for k in range(3):
            assert 0.0 <= analysis.effective_reconfig_success(k) <= 1.0

    def test_first_failure_reconfig_certain_for_hexa(self):
        analysis = ArrangementAnalysis(rotor_count=6)
        assert analysis.effective_reconfig_success(0) == pytest.approx(1.0)
