"""Property-based tests (hypothesis) on core data structures and invariants."""


import numpy as np
import pytest
# ``ContinuousMarkovChain.transient`` imports ``scipy.linalg.expm`` lazily.
# Importing it here keeps that first import out of the first example, which
# Hypothesis would otherwise time against its 200 ms deadline.
import scipy.linalg  # noqa: F401
from hypothesis import given, settings, strategies as st

from repro.geo import EnuFrame, GeoPoint
from repro.safedrones.fta import ComplexBasicEvent, OrGate
from repro.safedrones.markov import ContinuousMarkovChain
from repro.safeml.distances import ALL_MEASURES, kolmogorov_smirnov_distance
from repro.security.broker import topic_matches
from repro.sinadra.risk import SarRiskModel, SituationInputs

# Mid-latitude coordinates away from poles and the antimeridian, where the
# small-area approximations used by the simulation are valid.
lat_strategy = st.floats(min_value=-60.0, max_value=60.0)
lon_strategy = st.floats(min_value=-170.0, max_value=170.0)
prob_strategy = st.floats(min_value=0.0, max_value=1.0)


class TestGeoProperties:
    @given(
        lat=lat_strategy,
        lon=lon_strategy,
        east=st.floats(min_value=-5000.0, max_value=5000.0),
        north=st.floats(min_value=-5000.0, max_value=5000.0),
        up=st.floats(min_value=-100.0, max_value=500.0),
    )
    @settings(max_examples=100)
    def test_enu_roundtrip(self, lat, lon, east, north, up):
        frame = EnuFrame(origin=GeoPoint(lat, lon))
        e, n, u = frame.to_enu(frame.to_geo(east, north, up))
        assert e == pytest.approx(east, abs=1e-4)
        assert n == pytest.approx(north, abs=1e-4)
        assert u == pytest.approx(up, abs=1e-9)


class _Fixed:
    def __init__(self, p: float) -> None:
        self.failure_probability = p


class TestFtaProperties:
    @given(probs=st.lists(prob_strategy, min_size=1, max_size=6))
    @settings(max_examples=100)
    def test_or_between_max_and_union_bound(self, probs):
        events = [ComplexBasicEvent(f"e{i}", _Fixed(p)) for i, p in enumerate(probs)]
        or_p = OrGate("or", events).evaluate()
        assert max(probs) - 1e-12 <= or_p <= min(1.0, sum(probs)) + 1e-12


class TestMarkovProperties:
    @given(
        rate1=st.floats(min_value=1e-6, max_value=0.5),
        rate2=st.floats(min_value=1e-6, max_value=0.5),
        t=st.floats(min_value=0.0, max_value=100.0),
    )
    @settings(max_examples=60)
    def test_distribution_normalised_and_pof_monotone(self, rate1, rate2, t):
        chain = ContinuousMarkovChain(
            states=["a", "b", "fail"],
            q=np.array(
                [[0.0, rate1, 0.0], [0.0, 0.0, rate2], [0.0, 0.0, 0.0]]
            ),
            absorbing=frozenset({"fail"}),
        )
        p0 = np.array([1.0, 0.0, 0.0])
        pt = chain.transient(p0, t)
        assert pt.sum() == pytest.approx(1.0, abs=1e-8)
        assert (pt >= -1e-10).all()
        assert chain.failure_probability(p0, t) <= chain.failure_probability(
            p0, t + 10.0
        ) + 1e-9


@st.composite
def sample_pair(draw):
    a = draw(
        st.lists(
            st.floats(min_value=-100.0, max_value=100.0), min_size=5, max_size=60
        )
    )
    b = draw(
        st.lists(
            st.floats(min_value=-100.0, max_value=100.0), min_size=5, max_size=60
        )
    )
    return np.array(a), np.array(b)


class TestDistanceProperties:
    @given(pair=sample_pair())
    @settings(max_examples=60)
    def test_all_measures_nonnegative_and_symmetric(self, pair):
        a, b = pair
        for fn in ALL_MEASURES.values():
            d_ab = fn(a, b)
            assert d_ab >= -1e-12
            assert d_ab == pytest.approx(fn(b, a), rel=1e-9, abs=1e-9)

    @given(pair=sample_pair())
    @settings(max_examples=60)
    def test_identity_of_indiscernibles(self, pair):
        a, _ = pair
        for fn in ALL_MEASURES.values():
            assert fn(a, a) == pytest.approx(0.0, abs=1e-10)

    @given(pair=sample_pair())
    @settings(max_examples=60)
    def test_ks_bounded_by_one(self, pair):
        a, b = pair
        assert kolmogorov_smirnov_distance(a, b) <= 1.0 + 1e-12

    @given(
        a=st.lists(st.integers(min_value=-100, max_value=100), min_size=5, max_size=40),
        b=st.lists(st.integers(min_value=-100, max_value=100), min_size=5, max_size=40),
        shift=st.integers(min_value=-50, max_value=50),
    )
    @settings(max_examples=60)
    def test_ks_translation_invariance(self, a, b, shift):
        # Integer-valued data keeps the arithmetic exact, so the set of
        # ties is preserved under translation.
        a = np.array(a, dtype=float)
        b = np.array(b, dtype=float)
        assert kolmogorov_smirnov_distance(a, b) == pytest.approx(
            kolmogorov_smirnov_distance(a + shift, b + shift), abs=1e-9
        )


class TestBrokerProperties:
    @given(
        levels=st.lists(
            st.text(
                alphabet=st.characters(whitelist_categories=("Ll", "Nd")),
                min_size=1,
                max_size=5,
            ),
            min_size=1,
            max_size=5,
        )
    )
    @settings(max_examples=100)
    def test_exact_topic_matches_itself(self, levels):
        topic = "/".join(levels)
        assert topic_matches(topic, topic)
        assert topic_matches("#", topic)

    @given(
        levels=st.lists(
            st.text(
                alphabet=st.characters(whitelist_categories=("Ll",)),
                min_size=1,
                max_size=5,
            ),
            min_size=2,
            max_size=5,
        ),
        idx=st.integers(min_value=0, max_value=4),
    )
    @settings(max_examples=100)
    def test_plus_wildcard_matches_any_single_level(self, levels, idx):
        idx = idx % len(levels)
        topic = "/".join(levels)
        pattern_levels = list(levels)
        pattern_levels[idx] = "+"
        assert topic_matches("/".join(pattern_levels), topic)


class TestRiskProperties:
    @given(
        u1=prob_strategy,
        u2=prob_strategy,
        prior=prob_strategy,
    )
    @settings(max_examples=60)
    def test_risk_monotone_in_uncertainty(self, u1, u2, prior):
        model = SarRiskModel()
        lo, hi = sorted((u1, u2))
        r_lo = model.assess(
            SituationInputs(lo, "high", "good", prior)
        ).missed_person_probability
        r_hi = model.assess(
            SituationInputs(hi, "high", "good", prior)
        ).missed_person_probability
        assert r_hi >= r_lo - 1e-12

    @given(u=prob_strategy, prior=prob_strategy)
    @settings(max_examples=60)
    def test_risk_bounded_by_prior(self, u, prior):
        model = SarRiskModel()
        risk = model.assess(
            SituationInputs(u, "high", "poor", prior)
        ).missed_person_probability
        assert 0.0 <= risk <= prior + 1e-12
