"""Unit tests for the CTMC reliability engine."""

import numpy as np
import pytest

from repro.safedrones.markov import (
    ContinuousMarkovChain,
    MarkovModelError,
)


def two_state(rate=0.1):
    return ContinuousMarkovChain(
        states=["up", "down"],
        q=np.array([[0.0, rate], [0.0, 0.0]]),
        absorbing=frozenset({"down"}),
    )


class TestConstruction:
    def test_rows_sum_to_zero(self):
        chain = two_state()
        assert np.allclose(chain.q.sum(axis=1), 0.0)

    def test_rejects_wrong_shape(self):
        with pytest.raises(MarkovModelError):
            ContinuousMarkovChain(states=["a", "b"], q=np.zeros((3, 3)))

    def test_rejects_duplicate_states(self):
        with pytest.raises(MarkovModelError):
            ContinuousMarkovChain(states=["a", "a"], q=np.zeros((2, 2)))

    def test_rejects_negative_rates(self):
        with pytest.raises(MarkovModelError):
            ContinuousMarkovChain(
                states=["a", "b"], q=np.array([[0.0, -1.0], [0.0, 0.0]])
            )

    def test_rejects_unknown_absorbing(self):
        with pytest.raises(MarkovModelError):
            ContinuousMarkovChain(
                states=["a", "b"], q=np.zeros((2, 2)), absorbing=frozenset({"zzz"})
            )

    def test_rejects_leaky_absorbing_state(self):
        with pytest.raises(MarkovModelError):
            ContinuousMarkovChain(
                states=["a", "b"],
                q=np.array([[0.0, 1.0], [1.0, 0.0]]),
                absorbing=frozenset({"b"}),
            )


class TestTransient:
    def test_exponential_decay_closed_form(self):
        rate = 0.05
        chain = two_state(rate)
        for t in (0.0, 1.0, 10.0, 100.0):
            pof = chain.failure_probability(np.array([1.0, 0.0]), t)
            assert pof == pytest.approx(1.0 - np.exp(-rate * t), rel=1e-9, abs=1e-12)

    def test_distribution_stays_normalised(self):
        chain = two_state()
        pt = chain.transient(np.array([1.0, 0.0]), 37.0)
        assert pt.sum() == pytest.approx(1.0)
        assert (pt >= -1e-12).all()

    def test_rejects_bad_p0(self):
        chain = two_state()
        with pytest.raises(MarkovModelError):
            chain.transient(np.array([0.7, 0.7]), 1.0)

    def test_rejects_negative_time(self):
        chain = two_state()
        with pytest.raises(MarkovModelError):
            chain.transient(np.array([1.0, 0.0]), -1.0)

    def test_reliability_complements_pof(self):
        chain = two_state(0.03)
        p0 = np.array([1.0, 0.0])
        assert chain.reliability(p0, 10.0) == pytest.approx(
            1.0 - chain.failure_probability(p0, 10.0)
        )


class TestScaled:
    def test_scaling_accelerates_failure(self):
        chain = two_state(0.01)
        fast = chain.scaled(10.0)
        p0 = np.array([1.0, 0.0])
        assert fast.failure_probability(p0, 10.0) > chain.failure_probability(p0, 10.0)

    def test_scaled_equivalent_to_time_dilation(self):
        chain = two_state(0.01)
        p0 = np.array([1.0, 0.0])
        assert chain.scaled(3.0).failure_probability(p0, 5.0) == pytest.approx(
            chain.failure_probability(p0, 15.0)
        )

    def test_rejects_negative_factor(self):
        with pytest.raises(MarkovModelError):
            two_state().scaled(-1.0)
