"""Unit tests for the SafeDrones component models and runtime monitor."""

import numpy as np
import pytest

from repro.safedrones.battery import (
    BatteryReliabilityModel,
    battery_chain,
    battery_transient,
)
from repro.safedrones.arrangement import ArrangementAnalysis
from repro.safedrones.markov import ContinuousMarkovChain, MarkovModelError
from repro.safedrones.monitor import (
    ReliabilityLevel,
    SafeDronesMonitor,
)
from repro.safedrones.processor import ProcessorReliabilityModel
from repro.safedrones.propulsion import (
    PropulsionModel,
    TOLERABLE_FAILURES,
    motor_chain,
    motor_chain_from_survival,
    motor_transient,
)


class TestPropulsion:
    def test_quad_has_no_redundancy(self):
        chain = motor_chain(4)
        assert chain.states == ["ok_4", "failed"]

    def test_hexa_tolerates_one(self):
        chain = motor_chain(6)
        assert chain.states == ["ok_6", "ok_5", "failed"]

    def test_octa_tolerates_two(self):
        chain = motor_chain(8)
        assert chain.states == ["ok_8", "ok_7", "ok_6", "failed"]

    def test_rejects_unsupported_rotor_count(self):
        with pytest.raises(ValueError):
            motor_chain(3)

    def test_rejects_bad_reconfig_probability(self):
        with pytest.raises(ValueError):
            motor_chain(6, reconfig_success=1.5)

    def test_more_rotors_more_reliable_with_perfect_reconfig(self):
        horizon = 3600.0
        pofs = {
            n: PropulsionModel(
                rotor_count=n, reconfig_success=1.0
            ).failure_probability(horizon)
            for n in (4, 6, 8)
        }
        assert pofs[8] < pofs[6] < pofs[4]

    def test_imperfect_reconfig_penalises_large_airframes_short_horizon(self):
        # With risky reconfiguration, more motors means more opportunities
        # for a failed remap at short horizons — the crossover the
        # propulsion ablation bench sweeps.
        horizon = 3600.0
        hexa = PropulsionModel(rotor_count=6, reconfig_success=0.5)
        octa = PropulsionModel(rotor_count=8, reconfig_success=0.5)
        assert octa.failure_probability(horizon) > hexa.failure_probability(horizon)

    def test_motor_failure_degrades_reliability(self):
        model = PropulsionModel(rotor_count=6)
        before = model.failure_probability(3600.0)
        model.record_motor_failure()
        after = model.failure_probability(3600.0)
        assert after > before
        assert model.controllable

    def test_too_many_failures_lose_control(self):
        model = PropulsionModel(rotor_count=4)
        model.record_motor_failure()
        assert not model.controllable
        assert model.failure_probability(1.0) == 1.0
        assert model.mttf_hours() == 0.0

    def test_reconfig_success_improves_survival(self):
        good = PropulsionModel(rotor_count=6, reconfig_success=0.99)
        bad = PropulsionModel(rotor_count=6, reconfig_success=0.5)
        assert good.failure_probability(7200.0) < bad.failure_probability(7200.0)

    def test_tolerable_failures_table(self):
        assert TOLERABLE_FAILURES == {4: 0, 6: 1, 8: 2}


class TestBatteryReliability:
    def test_pof_starts_at_zero(self):
        model = BatteryReliabilityModel()
        assert model.failure_probability == 0.0

    def test_pof_monotone_under_updates(self):
        model = BatteryReliabilityModel()
        model.update(0.0, 0.9, 25.0)
        values = []
        for t in range(1, 200):
            values.append(model.update(float(t), 0.9, 25.0))
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_heat_accelerates(self):
        cool = BatteryReliabilityModel()
        hot = BatteryReliabilityModel()
        cool.update(0.0, 0.9, 25.0)
        hot.update(0.0, 0.9, 25.0)
        cool.update(600.0, 0.9, 25.0)
        hot.update(600.0, 0.9, 85.0)
        assert hot.failure_probability > cool.failure_probability

    def test_deep_discharge_accelerates(self):
        full = BatteryReliabilityModel()
        empty = BatteryReliabilityModel()
        full.update(0.0, 0.9, 25.0)
        empty.update(0.0, 0.2, 25.0)
        full.update(600.0, 0.9, 25.0)
        empty.update(600.0, 0.2, 25.0)
        assert empty.failure_probability > full.failure_probability

    def test_soc_factor_is_one_above_knee(self):
        model = BatteryReliabilityModel()
        assert model.soc_factor(0.8) == 1.0
        assert model.soc_factor(0.5) == 1.0
        assert model.soc_factor(0.3) > 1.0

    def test_arrhenius_reference_is_unity(self):
        model = BatteryReliabilityModel()
        assert model.arrhenius_factor(25.0) == pytest.approx(1.0)
        assert model.arrhenius_factor(85.0) > 10.0

    def test_cell_fault_advances_state(self):
        model = BatteryReliabilityModel()
        model.update(0.0, 0.9, 25.0)
        assert model.most_likely_state() == "healthy"
        model.register_cell_fault()
        assert model.most_likely_state() == "degraded"

    def test_rejects_time_reversal(self):
        model = BatteryReliabilityModel()
        model.update(10.0, 0.9, 25.0)
        with pytest.raises(ValueError):
            model.update(5.0, 0.9, 25.0)

    def test_prediction_exceeds_current(self):
        model = BatteryReliabilityModel()
        model.update(0.0, 0.4, 80.0)
        model.update(60.0, 0.4, 80.0)
        predicted = model.predict_failure_probability(300.0, 0.4, 80.0)
        assert predicted > model.failure_probability

    def test_distribution_remains_normalised(self):
        model = BatteryReliabilityModel()
        model.update(0.0, 0.3, 70.0)
        model.update(500.0, 0.3, 70.0)
        assert model.distribution.sum() == pytest.approx(1.0)


RATE = BatteryReliabilityModel().base_rate_per_s
STRESS = 37.5


def _simplex_points():
    rng = np.random.default_rng(2024)
    points = [np.array([1.0, 0.0, 0.0, 0.0]), np.array([0.0, 0.0, 0.0, 1.0])]
    points += [rng.dirichlet(np.ones(4)) for _ in range(6)]
    # Shapes left by register_cell_fault: nothing in ``healthy``.
    for _ in range(4):
        a, b, c = rng.dirichlet(np.ones(3))
        points.append(np.array([0.0, a, b, c]))
    return points


class TestBatteryTransientKernel:
    """The closed form against the ``expm`` chain it replaces."""

    @pytest.mark.parametrize("x", [0.0, 1e-12, 1e-3, 1.0, 10.0, 50.0])
    def test_matches_expm_oracle(self, x):
        oracle = battery_chain(RATE).scaled(STRESS)
        t = x / (RATE * STRESS)
        for p0 in _simplex_points():
            got = battery_transient(p0, RATE * STRESS, t)
            np.testing.assert_allclose(got, oracle.transient(p0, t), rtol=0.0, atol=1e-12)

    def test_zero_time_returns_p0(self):
        for p0 in (np.array([0.5, 0.25, 0.125, 0.125]), np.array([0.0, 0.75, 0.25, 0.0])):
            np.testing.assert_array_equal(battery_transient(p0, RATE * STRESS, 0.0), p0)
        for p0 in _simplex_points():
            np.testing.assert_allclose(
                battery_transient(p0, RATE * STRESS, 0.0), p0, rtol=0.0, atol=1e-15
            )

    @pytest.mark.parametrize(
        "p0, t",
        [
            ([0.7, 0.7, 0.0, 0.0], 1.0),  # does not sum to 1
            ([1.0 + 1.2e-5, 0.0, 0.0, 0.0], 1.0),  # just outside np.isclose
            ([0.5, 0.5, 0.0], 1.0),  # wrong length
            ([1.0, 0.0, 0.0, 0.0], -1.0),  # negative time
            ([1.05, -0.05, 0.0, 0.0], 0.0),  # clip loses normalisation
        ],
    )
    def test_rejects_what_the_oracle_rejects(self, p0, t):
        with pytest.raises(MarkovModelError):
            battery_chain(RATE).transient(np.array(p0), t)
        with pytest.raises(MarkovModelError):
            battery_transient(np.array(p0), RATE, t)

    def test_sum_tolerance_unchanged(self):
        p0 = np.array([1.0 + 0.9e-5, 0.0, 0.0, 0.0])
        np.testing.assert_allclose(
            battery_transient(p0, RATE, 100.0),
            battery_chain(RATE).transient(p0, 100.0),
            rtol=0.0,
            atol=1e-12,
        )

    def test_model_update_matches_oracle(self):
        model = BatteryReliabilityModel()
        p = np.array([1.0, 0.0, 0.0, 0.0])
        model.update(0.0, 0.9, 25.0)
        for now, soc, temp in [(60.0, 0.4, 84.0), (61.0, 0.4, 84.0), (400.0, 0.3, 90.0)]:
            dt = now - model.last_time
            model.update(now, soc, temp)
            p = battery_chain(RATE).scaled(model.stress_factor(soc, temp)).transient(p, dt)
            np.testing.assert_allclose(model.distribution, p, rtol=0.0, atol=1e-12)


HORIZONS = [0.0, 1e-9, 1.0, 600.0, 3600.0, 1e5, 1e7]


def expm_transient(chain, p0, t):
    """The generic ``expm`` solve, whatever ``transient`` the chain overrides."""
    return ContinuousMarkovChain.transient(chain, p0, t)


@pytest.fixture(scope="module")
def arrangement_chains():
    return {
        rotors: motor_chain_from_survival(
            rotors, ArrangementAnalysis(rotor_count=rotors).survival_by_count
        )
        for rotors in (4, 6, 8)
    }


class TestMotorTransientKernel:
    """The closed form against the ``expm`` chain it stands in for."""

    def assert_matches_oracle(self, chain, t):
        n = len(chain.states)
        starts = [np.eye(n)[i] for i in range(n)]
        starts += list(np.random.default_rng(28).dirichlet(np.ones(n), size=3))
        for p0 in starts:
            np.testing.assert_allclose(
                motor_transient(chain, p0, t),
                expm_transient(chain, p0, t),
                rtol=0.0,
                atol=1e-12,
            )

    @pytest.mark.parametrize("t", HORIZONS)
    @pytest.mark.parametrize("rotors", [4, 6, 8])
    def test_matches_expm_oracle(self, rotors, t):
        for reconfig in (0.0, 0.5, 0.9, 1.0):
            self.assert_matches_oracle(motor_chain(rotors, reconfig_success=reconfig), t)
        self.assert_matches_oracle(motor_chain(rotors, failure_rate_per_hour=0.0), t)
        self.assert_matches_oracle(motor_chain(rotors, failure_rate_per_hour=0.05), t)

    @pytest.mark.parametrize("t", HORIZONS)
    @pytest.mark.parametrize("rotors", [4, 6, 8])
    def test_arrangement_chain_matches_expm_oracle(self, arrangement_chains, rotors, t):
        self.assert_matches_oracle(arrangement_chains[rotors], t)

    @pytest.mark.parametrize("t", HORIZONS)
    @pytest.mark.parametrize("rotors", [4, 6, 8])
    def test_model_pof_matches_oracle_for_every_controllable_state(self, rotors, t):
        model = PropulsionModel(rotor_count=rotors)
        while model.controllable:
            p0 = np.eye(len(model.chain.states))[model.chain.index(model._current_state())]
            expected = expm_transient(model.chain, p0, t)[-1]
            assert model.failure_probability(t) == pytest.approx(expected, rel=0.0, abs=1e-12)
            model.record_motor_failure()
        assert model.failure_probability(t) == 1.0

    def test_chain_transient_is_the_kernel(self):
        chain = motor_chain(8)
        p0 = np.array([0.5, 0.25, 0.25, 0.0])
        np.testing.assert_array_equal(chain.transient(p0, 3600.0), motor_transient(chain, p0, 3600.0))

    def test_zero_time_returns_p0(self):
        chain = motor_chain(8)
        for p0 in (np.eye(4)[1], np.array([0.5, 0.25, 0.125, 0.125])):
            np.testing.assert_array_equal(motor_transient(chain, p0, 0.0), p0)

    @pytest.mark.parametrize(
        "p0, t",
        [
            ([0.7, 0.7, 0.0, 0.0], 1.0),  # does not sum to 1
            ([1.0 + 1.2e-5, 0.0, 0.0, 0.0], 1.0),  # just outside np.isclose
            ([0.5, 0.5, 0.0], 1.0),  # wrong length
            ([1.0, 0.0, 0.0, 0.0], -1.0),  # negative time
            ([1.0, 0.0, 0.0, 0.0], -1e-9),  # negative time, barely
            ([1.05, -0.05, 0.0, 0.0], 0.0),  # clip loses normalisation
        ],
    )
    def test_rejects_what_the_oracle_rejects(self, p0, t):
        chain = motor_chain(8)
        with pytest.raises(MarkovModelError):
            expm_transient(chain, np.array(p0), t)
        with pytest.raises(MarkovModelError):
            motor_transient(chain, np.array(p0), t)

    @pytest.mark.parametrize("rotors", [4, 6, 8])
    def test_negative_horizon_rejected_by_the_model(self, rotors):
        with pytest.raises(MarkovModelError, match="t must be non-negative"):
            PropulsionModel(rotor_count=rotors).failure_probability(-1.0)

    def test_sum_tolerance_unchanged(self):
        chain = motor_chain(6)
        p0 = np.array([1.0 + 0.9e-5, 0.0, 0.0])
        np.testing.assert_allclose(
            motor_transient(chain, p0, 1e5),
            expm_transient(chain, p0, 1e5),
            rtol=0.0,
            atol=1e-12,
        )

    @pytest.mark.parametrize(
        "q, absorbing",
        [
            # A repair transition back to a healthier stage.
            ([[-2.0, 1.0, 1.0], [1.0, -2.0, 1.0], [0.0, 0.0, 0.0]], {"c"}),
            # A stage skipped on the way down.
            ([[-3.0, 1.0, 1.0, 1.0], [0.0, -2.0, 1.0, 1.0], [0.0, 0.0, -1.0, 1.0],
              [0.0, 0.0, 0.0, 0.0]], {"d"}),
            # Stage rates not equally spaced.
            ([[-4.0, 3.0, 0.0, 1.0], [0.0, -2.0, 1.0, 1.0], [0.0, 0.0, -1.0, 1.0],
              [0.0, 0.0, 0.0, 0.0]], {"d"}),
            # Stage rates rising down the chain.
            ([[-1.0, 0.5, 0.5], [0.0, -2.0, 2.0], [0.0, 0.0, 0.0]], {"c"}),
            # Two absorbing states.
            ([[-2.0, 1.0, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]], {"b", "c"}),
        ],
        ids=["repair", "skip", "uneven-rates", "rising-rates", "two-absorbing"],
    )
    def test_rejects_a_chain_of_another_shape(self, q, absorbing):
        states = "abcd"[: len(q)]
        chain = ContinuousMarkovChain(states=list(states), q=np.array(q), absorbing=frozenset(absorbing))
        with pytest.raises(MarkovModelError, match="not a motor chain"):
            motor_transient(chain, np.eye(len(q))[0], 1.0)

    def test_model_never_falls_back_to_expm(self):
        model = PropulsionModel(rotor_count=6)
        model.chain = ContinuousMarkovChain(
            states=["ok_6", "ok_5", "failed"],
            q=np.array([[-2.0, 1.0, 1.0], [1.0, -2.0, 1.0], [0.0, 0.0, 0.0]]),
            absorbing=frozenset({"failed"}),
        )
        with pytest.raises(MarkovModelError, match="not a motor chain"):
            model.failure_probability(600.0)


class TestProcessor:
    def test_reliability_decays_over_time(self):
        model = ProcessorReliabilityModel()
        model.update(0.0, 50.0)
        model.update(3600.0, 50.0)
        r1 = model.reliability
        model.update(7200.0, 50.0)
        assert model.reliability < r1

    def test_thermal_factor_reference(self):
        model = ProcessorReliabilityModel()
        assert model.thermal_factor(45.0) == pytest.approx(1.0)
        assert model.thermal_factor(90.0) > 1.0

    def test_mission_reliability_closed_form(self):
        model = ProcessorReliabilityModel()
        r = model.mission_reliability(3600.0, 45.0)
        lam = (model.ser_rate_per_hour + model.wearout_rate_per_hour) / 3600.0
        assert r == pytest.approx(np.exp(-lam * 3600.0))

    def test_rejects_time_reversal(self):
        model = ProcessorReliabilityModel()
        model.update(10.0, 50.0)
        with pytest.raises(ValueError):
            model.update(1.0, 50.0)


class TestReliabilityLevel:
    def test_thresholds(self):
        assert ReliabilityLevel.from_failure_probability(0.0) is ReliabilityLevel.HIGH
        assert ReliabilityLevel.from_failure_probability(0.3) is ReliabilityLevel.MEDIUM
        assert ReliabilityLevel.from_failure_probability(0.9) is ReliabilityLevel.LOW

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ReliabilityLevel.from_failure_probability(1.5)


class TestSafeDronesMonitor:
    def test_healthy_flight_stays_high(self):
        monitor = SafeDronesMonitor(uav_id="u")
        for t in range(0, 300, 5):
            assessment = monitor.update(float(t), 0.9, 30.0)
        assert assessment.level is ReliabilityLevel.HIGH
        assert not assessment.abort_recommended

    def test_detects_soc_collapse(self):
        monitor = SafeDronesMonitor(uav_id="u")
        monitor.update(0.0, 0.80, 30.0)
        assessment = monitor.update(1.0, 0.40, 80.0)
        assert assessment.battery_fault_detected

    def test_gradual_drain_not_a_fault(self):
        monitor = SafeDronesMonitor(uav_id="u")
        soc = 0.9
        for t in range(0, 600, 5):
            soc -= 0.002
            assessment = monitor.update(float(t), soc, 30.0)
        assert not assessment.battery_fault_detected

    def test_abort_recommended_past_threshold(self):
        monitor = SafeDronesMonitor(uav_id="u", pof_abort_threshold=0.9)
        monitor.update(0.0, 0.80, 30.0)
        monitor.update(1.0, 0.40, 85.0)  # fault
        assessment = None
        for t in range(2, 2000, 2):
            assessment = monitor.update(float(t), 0.35, 85.0)
            if assessment.abort_recommended:
                break
        assert assessment.abort_recommended
        assert assessment.failure_probability >= 0.9

    def test_history_accumulates(self):
        monitor = SafeDronesMonitor(uav_id="u")
        for t in range(5):
            monitor.update(float(t), 0.9, 25.0)
        assert len(monitor.history) == 5
        assert monitor.latest is monitor.history[-1]

    def test_fault_tree_combines_components(self):
        monitor = SafeDronesMonitor(uav_id="u")
        assessment = monitor.update(0.0, 0.9, 25.0)
        assert assessment.failure_probability >= assessment.battery_pof
        assert assessment.failure_probability >= assessment.processor_pof
