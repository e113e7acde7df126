"""Property tests for the assurance plane.

Where ``tests/test_assurance_equivalence.py`` proves the batched plane
*equals* the scalar reference, this file proves both satisfy the
semantic invariants the assurance layer is supposed to have, expressed
through the predicates defined below:

* ConSert guarantees are monotone under evidence decay: losing evidence
  never *improves* the offered guarantee (``demotion_monotone_ok``).
* SafeDrones reliability demotions driven by a continuously-evolving
  failure probability pass through every level (``demotion_step_ok``).
* The distances in a :meth:`SafeMlMonitor.report` — which both planes
  use — respect their analytic ranges (``distance_in_bounds``) and
  vanish on identical windows.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.conserts import flatten
from repro.core.uav_network import UavConSertNetwork, UavGuarantee
from repro.safedrones.monitor import ReliabilityLevel, SafeDronesMonitor
from repro.safeml.distances import ALL_MEASURES
from repro.safeml.monitor import SafeMlMonitor


# -------------------------------------------------------------- predicates
#: UavGuarantee declaration order is severity order: 0 = best offer
#: (continue with extra tasks), 4 = worst (emergency land).
GUARANTEE_RANK = {guarantee: i for i, guarantee in enumerate(UavGuarantee)}
#: Same for the SafeDrones reliability vocabulary: HIGH=0, MEDIUM=1, LOW=2.
RELIABILITY_RANK = {level: i for i, level in enumerate(ReliabilityLevel)}
#: Per-measure upper bound of the SafeML distances over ECDFs in [0, 1].
#: KS is a sup of |F_a - F_b| (≤ 1); Kuiper sums two sups (≤ 2); the
#: integrated/weighted measures are unbounded in data units but must stay
#: finite and non-negative.
DISTANCE_UPPER_BOUND = {"kolmogorov_smirnov": 1.0, "kuiper": 2.0}


def guarantee_rank(guarantee: UavGuarantee) -> int:
    """Severity rank of a top-level guarantee (0 = best, 4 = worst)."""
    return GUARANTEE_RANK[guarantee]


def demotion_monotone_ok(prev: UavGuarantee, cur: UavGuarantee) -> bool:
    """Whether a guarantee change respects decay monotonicity.

    Under *pure evidence decay* (bits only flip good -> bad, nothing
    recovers) the offered guarantee can only hold or worsen — the ConSert
    trees are monotone boolean programs of positive evidence.
    """
    return GUARANTEE_RANK[cur] >= GUARANTEE_RANK[prev]


def demotion_step_ok(prev: ReliabilityLevel, cur: ReliabilityLevel) -> bool:
    """Whether a reliability demotion moved at most one level.

    The level is a threshold function of a continuously-evolving failure
    probability (HIGH below 0.2, MEDIUM below 0.6), so as long as the
    per-cycle PoF increment is small the monitor must pass through
    MEDIUM on the way from HIGH to LOW — skipping a level means the PoF
    jumped the whole [0.2, 0.6) band in one cycle.
    """
    return RELIABILITY_RANK[cur] - RELIABILITY_RANK[prev] <= 1


def distance_in_bounds(measure: str, value: float) -> bool:
    """Whether one SafeML distance value is in its legal range."""
    return (
        math.isfinite(value)
        and value >= 0.0
        and value <= DISTANCE_UPPER_BOUND.get(measure, math.inf)
    )


# ------------------------------------------------------------ ConSert layer
def test_guarantee_monotone_under_evidence_decay():
    """Evidence only decaying -> the offered guarantee never improves."""
    network = UavConSertNetwork(uav_id="prop")
    flat = flatten(network.uav)
    uav = network.uav.guarantee_names()

    def offered(values: list[bool]) -> UavGuarantee:
        return UavGuarantee(uav[flat.program(*values)[-1]])

    rng = np.random.default_rng(7)
    for _ in range(400):
        values = [True] * len(flat.evidence)
        prev = offered(values)
        assert guarantee_rank(prev) == 0  # all-good start
        for k in rng.permutation(len(values)):
            values[k] = False
            cur = offered(values)
            assert demotion_monotone_ok(prev, cur), (
                f"improved {prev} -> {cur} while losing evidence"
            )
            prev = cur
        # Everything lost -> the worst guarantee, not a missing offer.
        assert guarantee_rank(prev) == 4


# ------------------------------------------------------ SafeDrones monitors
def test_reliability_demotion_never_skips_levels():
    """Continuous PoF growth demotes HIGH -> MEDIUM -> LOW, one at a time."""
    rng = np.random.default_rng(23)
    n = 8
    monitors = [SafeDronesMonitor(uav_id=f"uav{row}", rotor_count=4) for row in range(n)]
    soc = rng.uniform(0.3, 0.7, n).tolist()
    temp = rng.uniform(55.0, 68.0, n).tolist()
    dt = 30.0
    now = 0.0
    prev = [ReliabilityLevel.HIGH] * n
    seen = [set() for _ in range(n)]
    for _ in range(200):
        now += dt
        for row in range(n):
            level = monitors[row].update(now, soc[row], temp[row]).level
            assert demotion_step_ok(prev[row], level), (
                f"row {row} skipped {prev[row]} -> {level}"
            )
            seen[row].add(level)
            prev[row] = level
        if all(p is ReliabilityLevel.LOW for p in prev):
            break
    # The run must actually traverse the whole ladder to prove anything.
    assert all(s == set(ReliabilityLevel) for s in seen)


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
