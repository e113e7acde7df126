"""Property tests for the assurance plane.

Where ``tests/test_assurance_equivalence.py`` proves the batched plane
*equals* the scalar reference, this file proves both satisfy the
semantic invariants the assurance layer is supposed to have — expressed
through the shared predicates in :mod:`repro.harness.oracles` so the
fuzzing campaign checks exactly the same properties:

* ConSert guarantees are monotone under evidence decay: losing evidence
  never *improves* the offered guarantee (``demotion_monotone_ok``).
* SafeDrones reliability demotions driven by a continuously-evolving
  failure probability pass through every level (``demotion_step_ok``).
* The distances in a :meth:`SafeMlMonitor.report` — which both planes
  use — respect their analytic ranges (``distance_in_bounds``) and
  vanish on identical windows.
* The compiled boolean programs agree with the scalar ConSert trees on
  *arbitrary* evidence (not just trajectories a simulation can reach),
  and the zero-UAV / single-UAV edges behave.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.batch import BatchSafeDrones, compiled_conserts
from repro.core.uav_network import UavConSertNetwork
from repro.harness.oracles import (
    RELIABILITY_RANK,
    demotion_monotone_ok,
    demotion_step_ok,
    distance_in_bounds,
    guarantee_rank,
)
from repro.safedrones.monitor import ReliabilityLevel, SafeDronesMonitor
from repro.safeml.distances import ALL_MEASURES
from repro.safeml.monitor import SafeMlMonitor


# ------------------------------------------------------------ ConSert layer
def _scalar_offers(evidence: dict[str, bool]) -> dict[str, int]:
    """Evaluate the scalar template network; offer index per ConSert."""
    compiled = compiled_conserts()
    network = UavConSertNetwork(uav_id="prop")
    network.set_reliability_level("high")
    for name in compiled.fields:
        for node in getattr(network, name).evidence_nodes():
            node.value = evidence[node.name]
    out = {}
    for name in compiled.fields:
        offered = getattr(network, name).evaluate()
        names = compiled.guarantee_names[name]
        out[name] = names.index(offered.name) if offered is not None else -1
    return out


def test_guarantee_monotone_under_evidence_decay():
    """Evidence only decaying -> the offered guarantee never improves."""
    compiled = compiled_conserts()
    names = list(compiled.evidence_defaults)
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        evidence = {k: np.ones(n, dtype=bool) for k in names}
        orders = [rng.permutation(len(names)) for _ in range(n)]
        prev = [
            compiled.uav_guarantees[i]
            for i in compiled.evaluate(evidence, n)["uav"]
        ]
        assert all(guarantee_rank(g) == 0 for g in prev)  # all-good start
        for step in range(len(names)):
            for row in range(n):
                evidence[names[orders[row][step]]][row] = False
            cur = [
                compiled.uav_guarantees[i]
                for i in compiled.evaluate(evidence, n)["uav"]
            ]
            for row in range(n):
                assert demotion_monotone_ok(prev[row], cur[row]), (
                    f"row {row} improved {prev[row]} -> {cur[row]} "
                    "while losing evidence"
                )
            prev = cur
        # Everything lost -> the worst guarantee, not a missing offer.
        assert all(guarantee_rank(g) == 4 for g in prev)


def test_compiled_programs_match_scalar_trees_on_arbitrary_evidence():
    """Compiled offers == scalar tree evaluation for random evidence.

    Arbitrary boolean assignments cover combinations no simulated
    trajectory reaches (e.g. reliability_medium without reliability_high).
    """
    compiled = compiled_conserts()
    names = list(compiled.evidence_defaults)
    rng = np.random.default_rng(11)
    n = 64
    for _ in range(20):
        stacked = {k: rng.random(n) < 0.5 for k in names}
        offers = compiled.evaluate(stacked, n)
        for row in range(n):
            scalar = _scalar_offers(
                {k: bool(stacked[k][row]) for k in names}
            )
            batched = {k: int(v[row]) for k, v in offers.items()}
            assert batched == scalar, f"row {row}: {batched} != {scalar}"


def test_zero_rows_evaluate_cleanly():
    compiled = compiled_conserts()
    evidence = {
        k: np.zeros(0, dtype=bool) for k in compiled.evidence_defaults
    }
    offers = compiled.evaluate(evidence, 0)
    assert set(offers) == set(compiled.fields)
    assert all(v.shape == (0,) for v in offers.values())


# ---------------------------------------------------------- SafeDrones bank
def test_reliability_demotion_never_skips_levels():
    """Continuous PoF growth demotes HIGH -> MEDIUM -> LOW, one at a time."""
    rng = np.random.default_rng(23)
    n = 8
    monitors = BatchSafeDrones(n, [4] * n)
    soc = rng.uniform(0.3, 0.7, n)
    temp = rng.uniform(55.0, 68.0, n)
    dt = 30.0
    now = 0.0
    prev = [ReliabilityLevel.HIGH] * n
    seen = [set() for _ in range(n)]
    for _ in range(200):
        now += dt
        monitors.update(now, soc, temp)
        for row in range(n):
            level = monitors.assessment(row).level
            assert demotion_step_ok(prev[row], level), (
                f"row {row} skipped {prev[row]} -> {level}"
            )
            seen[row].add(level)
            prev[row] = level
        if all(p is ReliabilityLevel.LOW for p in prev):
            break
    # The run must actually traverse the whole ladder to prove anything.
    assert all(s == set(ReliabilityLevel) for s in seen)


def test_single_row_bank_matches_scalar_monitor():
    """n=1 stacked SafeDrones is bitwise the scalar monitor."""
    batched = BatchSafeDrones(1, [6], pof_abort_threshold=0.7)
    scalar = SafeDronesMonitor(
        uav_id="solo", rotor_count=6, pof_abort_threshold=0.7
    )
    rng = np.random.default_rng(3)
    now = 0.0
    soc, temp = 0.9, 25.0
    for _ in range(100):
        now += float(rng.uniform(0.5, 5.0))
        soc = max(0.05, soc - float(rng.uniform(0.0, 0.02)))
        temp += float(rng.uniform(-0.5, 1.5))
        motors = int(rng.integers(0, 3))
        batched.update(
            now, np.array([soc]), np.array([temp]), np.array([motors])
        )
        reference = scalar.update(now, soc, temp, motors_failed=motors)
        measured = batched.assessment(0)
        assert measured.failure_probability == reference.failure_probability
        assert measured.battery_pof == reference.battery_pof
        assert measured.propulsion_pof == reference.propulsion_pof
        assert measured.processor_pof == reference.processor_pof
        assert measured.level is reference.level
        assert measured.abort_recommended == reference.abort_recommended


def test_reliability_rank_covers_vocabulary():
    assert [RELIABILITY_RANK[level] for level in ReliabilityLevel] == [0, 1, 2]


# --------------------------------------------------------------- SafeML ECDF
def _fitted_monitor(measure: str, rng, shift: float) -> SafeMlMonitor:
    monitor = SafeMlMonitor(measure=measure, window_size=16)
    monitor.fit(rng.normal(0.0, 1.0, size=(64, 3)))
    for _ in range(16):
        monitor.observe(rng.normal(shift, 1.0, size=3))
    return monitor


@pytest.mark.parametrize("measure", sorted(ALL_MEASURES))
def test_stacked_distances_respect_bounds(measure):
    """Every monitor-reported distance is finite, >= 0, and below its sup."""
    rng = np.random.default_rng(29)
    monitors = [
        _fitted_monitor(measure, rng, shift)
        for shift in (0.0, 0.5, 2.0, 10.0, -25.0)
    ]
    for report in (monitor.report(1.0) for monitor in monitors):
        for value in report.distances.values():
            assert distance_in_bounds(measure, value), (
                f"{measure} out of bounds: {value!r}"
            )


@pytest.mark.parametrize("measure", sorted(ALL_MEASURES))
def test_identical_windows_have_zero_distance(measure):
    """A window drawn exactly from the training sample measures zero."""
    rng = np.random.default_rng(31)
    training = rng.normal(0.0, 1.0, size=(32, 2))
    monitor = SafeMlMonitor(measure=measure, window_size=32)
    monitor.fit(np.vstack([training, training]))
    for row in training:
        monitor.observe(row)
    report = monitor.report(1.0)
    # The window IS (half of) the reference sample: both ECDFs coincide
    # on the pooled support, so every measure must return exactly 0.
    assert all(value == 0.0 for value in report.distances.values()), (
        report.distances
    )
