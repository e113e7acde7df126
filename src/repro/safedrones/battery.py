"""Markov battery reliability model with thermal stress acceleration.

Drives the paper's Fig. 5 experiment. The pack is modelled as a
degradation chain ``healthy -> degraded -> critical -> failed`` whose
transition rates are accelerated by an Arrhenius factor in cell
temperature and a state-of-charge stress factor. The runtime monitor
integrates the chain forward with the *live* stress observed in telemetry
("dynamic Markov-based models ... and real-time monitoring", Sec. III-A1),
so the probability-of-failure curve responds to the injected thermal fault
exactly as the paper's blue curve does.

Every stage has the same rate, so the chain is a pure-birth process and
its transient has a closed form (:func:`battery_transient`): over
``x = rate * dt`` the number of stage transitions is Poisson(``x``), and
the absorbing ``failed`` stage collects the tail. The model keeps its
distribution as a tuple of four floats and the kernel works on plain
floats, so an update touches no NumPy; every SafeDrones monitor (Fig. 5,
``fig4`` and one per UAV in both assurance planes) steps through it. The
generic ``expm``-based :class:`~repro.safedrones.markov.ContinuousMarkovChain`
from :func:`battery_chain` stays as the readable model and the test oracle.

Calibration: with the paper's scenario (fault at t=250 s collapsing SoC to
40% and sustaining ~84 C cell temperature) the PoF crosses the 0.9
threshold near the 510 s mission end, matching Fig. 5.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.safedrones.markov import (
    ContinuousMarkovChain,
    MarkovModelError,
    checked_start,
    checked_total,
)

BOLTZMANN_EV = 8.617333e-5
"""Boltzmann constant in eV/K for the Arrhenius acceleration factor."""

STATES = ["healthy", "degraded", "critical", "failed"]
FAILED = STATES.index("failed")


def battery_chain(base_rate_per_s: float) -> ContinuousMarkovChain:
    """Degradation chain with uniform stage rate ``base_rate_per_s``."""
    lam = base_rate_per_s
    q = np.array(
        [
            [0.0, lam, 0.0, 0.0],
            [0.0, 0.0, lam, 0.0],
            [0.0, 0.0, 0.0, lam],
            [0.0, 0.0, 0.0, 0.0],
        ]
    )
    return ContinuousMarkovChain(states=list(STATES), q=q, absorbing=frozenset({"failed"}))


def battery_transient(p0, rate_per_s: float, t: float) -> tuple[float, ...]:
    """Closed-form ``battery_chain(rate_per_s).transient(p0, t)``.

    With ``x = rate_per_s * t`` and ``e = exp(-x)``, mass in stage ``i``
    moves ``k`` stages with Poisson weight ``e * x**k / k!``; whatever
    would move past ``failed`` stays there. The chain's checks are kept
    with their tolerances and error type: ``p0`` length, ``p0`` summing
    to 1, non-negative rate and time, then the clip, the normalisation
    check and the renormalisation.
    """
    a, b, c, d = checked_start(p0, len(STATES))
    if rate_per_s < 0.0:
        raise MarkovModelError("rate factor must be non-negative")
    if t < 0.0:
        raise MarkovModelError("t must be non-negative")
    x = rate_per_s * t
    e = math.exp(-x)
    w1 = e * x
    w2 = w1 * x / 2.0
    tail1 = -math.expm1(-x)  # P(at least one transition)
    tail2 = tail1 - w1
    tail3 = tail2 - w2
    a, b, c, d = (
        a * e,
        a * w1 + b * e,
        a * w2 + b * w1 + c * e,
        d + c * tail1 + b * tail2 + a * tail3,
    )
    # ``renormalised`` unrolled over the four stages, which saves its two
    # comprehensions on every monitor update: the same clip, check and
    # division, in the same order.
    a = 0.0 if a < 0.0 else a
    b = 0.0 if b < 0.0 else b
    c = 0.0 if c < 0.0 else c
    d = 0.0 if d < 0.0 else d
    total = checked_total((a, b, c, d))
    return (a / total, b / total, c / total, d / total)


@dataclass
class BatteryReliabilityModel:
    """Runtime battery probability-of-failure estimator.

    Call :meth:`update` with each telemetry sample; read
    :attr:`failure_probability`. The chain distribution is integrated with
    the instantaneous stress-accelerated generator, so both sustained
    thermal faults and recoveries are reflected.
    """

    base_rate_per_s: float = 6.4e-5
    activation_energy_ev: float = 0.7
    reference_temp_c: float = 25.0
    soc_stress_gamma: float = 6.0
    soc_stress_knee: float = 0.5
    distribution: tuple[float, ...] = field(default=(1.0, 0.0, 0.0, 0.0), repr=False)
    last_time: float | None = None

    # ------------------------------------------------------------- stress
    def arrhenius_factor(self, temp_c: float) -> float:
        """Thermal acceleration relative to the reference temperature."""
        t_ref = self.reference_temp_c + 273.15
        t = (-200.0 if temp_c < -200.0 else temp_c) + 273.15
        exponent = (self.activation_energy_ev / BOLTZMANN_EV) * (1.0 / t_ref - 1.0 / t)
        return math.exp(exponent)

    def soc_factor(self, soc: float) -> float:
        """Deep-discharge stress: grows below the ``soc_stress_knee``."""
        # min(max(soc, 0.0), 1.0), NaN included.
        soc = 0.0 if soc < 0.0 else soc
        soc = 1.0 if soc > 1.0 else soc
        if soc >= self.soc_stress_knee:
            return 1.0
        return math.exp(self.soc_stress_gamma * (self.soc_stress_knee - soc))

    def stress_factor(self, soc: float, temp_c: float) -> float:
        """Combined rate multiplier for the current operating condition."""
        return self.arrhenius_factor(temp_c) * self.soc_factor(soc)

    # -------------------------------------------------------------- update
    def update(self, now: float, soc: float, temp_c: float) -> float:
        """Integrate the chain to ``now`` under the observed condition.

        Returns the updated probability of failure. An abrupt SoC collapse
        (cell-group failure) additionally shifts surviving probability mass
        one degradation stage forward, reflecting the diagnosed damage.
        """
        if self.last_time is None:
            self.last_time = now
            return self.failure_probability
        dt = now - self.last_time
        if dt < 0.0:
            raise ValueError("time went backwards")
        self.last_time = now
        if dt == 0.0:
            return self.failure_probability
        rate = self.base_rate_per_s * self.stress_factor(soc, temp_c)
        self.distribution = distribution = battery_transient(self.distribution, rate, dt)
        return distribution[FAILED]

    def register_cell_fault(self) -> None:
        """Shift surviving mass one stage forward after a diagnosed cell fault."""
        p = self.distribution
        self.distribution = (0.0, p[0], p[1], p[2] + p[3])

    @property
    def failure_probability(self) -> float:
        """Probability the pack has failed (mass in the absorbing state)."""
        return float(self.distribution[FAILED])

    @property
    def reliability(self) -> float:
        """1 - probability of failure."""
        return 1.0 - self.failure_probability
