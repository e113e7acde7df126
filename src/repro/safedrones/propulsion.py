"""Markov propulsion reliability with reconfiguration.

After Aslansefat et al., "A Markov process-based approach for reliability
evaluation of the propulsion system in multi-rotor drones" (DoCEIS 2019),
which the paper cites as the SafeDrones propulsion model: the chain counts
failed motors; airframes with redundant rotors (hexa/octa) can
*reconfigure* (remap thrust allocation) to tolerate failures, while a
quadrotor is lost on its first motor-out.

The chains :func:`motor_chain` builds are upper-triangular: ``ok_k``
stages whose exit rates ``k * lambda`` fall by one ``lambda`` per stage,
plus the absorbing ``failed``. Their
transient has a closed form (:func:`motor_transient`), which is what the
runtime solves: :class:`MotorChain` answers ``transient`` with it, and
:meth:`PropulsionModel.failure_probability` (the one path both assurance
planes take) calls it directly, so flying a mission loads no SciPy.
Models with equal parameters share one chain and one PoF memo, so a
fleet of monitors builds each chain and solves each state once. The
generic ``expm`` solve, ``ContinuousMarkovChain.transient(chain, p0, t)``,
stays the readable definition and the oracle the tests check it against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.safedrones.markov import (
    ContinuousMarkovChain,
    MarkovModelError,
    checked_start,
    renormalised,
)

#: Motors that may fail before the airframe becomes uncontrollable, by
#: rotor count, assuming optimal reconfiguration of the thrust mixer.
TOLERABLE_FAILURES = {4: 0, 6: 1, 8: 2}


def motor_transient(chain: ContinuousMarkovChain, p0, t: float) -> np.ndarray:
    """Closed-form ``ContinuousMarkovChain.transient(chain, p0, t)``.

    ``chain`` must have the motor-chain shape: states ``0 .. m-1`` are
    stages left at rates ``r_i`` that fall by an equal step ``h >= 0``
    (to within 1e-12 of the largest rate), stage ``i`` moves only to
    ``i + 1`` (rate ``s_i``) or to the last state, and the last state is
    the only absorbing one. Anything else raises :class:`MarkovModelError`.

    On such a chain the matrix exponential of the transient block is the
    divided difference of ``exp`` over equally spaced nodes, so from stage
    ``i`` the mass in stage ``j >= i`` after ``t`` seconds is::

        exp(-r_j t) * (s_i * ... * s_{j-1}) * (-expm1(-h t) / h) ** (j - i) / (j - i)!

    (``t`` in place of ``-expm1(-h t) / h`` when ``h t`` is 0), and the
    rest, ``-expm1(-r_i t)`` less the later stages, is absorbed. The
    chain's checks are kept with their tolerances and error type: ``p0``
    length, ``p0`` summing to 1, non-negative time, then the clip, the
    normalisation check and the renormalisation.
    """
    q = chain.q
    n = len(chain.states)
    m = n - 1
    rates = [-float(q[i, i]) for i in range(m)]
    steps = [rates[i] - rates[i + 1] for i in range(m - 1)]
    step = (rates[0] - rates[-1]) / (m - 1) if m > 1 else 0.0
    if (
        chain.absorbing != {chain.states[m]}
        or np.tril(q, -1).any()
        or np.triu(q[:m, :m], 2).any()
        or step < 0.0
        or any(abs(d - step) > 1e-12 * rates[0] for d in steps)
    ):
        raise MarkovModelError("not a motor chain: no closed-form transient")
    start = checked_start(p0, n)
    if t < 0.0:
        raise MarkovModelError("t must be non-negative")
    links = [float(q[i, i + 1]) for i in range(m - 1)]
    x = step * t
    spread = -math.expm1(-x) / step if x != 0.0 else t
    pt = [0.0] * m + [start[m]]
    for i in range(m):
        weight = 1.0
        later = 0.0
        pt[i] += start[i] * math.exp(-rates[i] * t)
        for j in range(i + 1, m):
            weight *= links[j - 1] * spread / (j - i)
            mass = math.exp(-rates[j] * t) * weight
            later += mass
            pt[j] += start[i] * mass
        pt[m] += start[i] * (-math.expm1(-rates[i] * t) - later)
    return np.array(renormalised(pt))


class MotorChain(ContinuousMarkovChain):
    """A motor-failure CTMC whose ``transient`` is :func:`motor_transient`.

    The inherited ``expm`` solve stays reachable as
    ``ContinuousMarkovChain.transient(chain, p0, t)``, the tests' oracle.
    """

    def transient(self, p0: np.ndarray, t: float) -> np.ndarray:
        return motor_transient(self, p0, t)


def motor_chain(
    rotor_count: int,
    failure_rate_per_hour: float = 1e-3,
    reconfig_success: float = 0.9,
) -> MotorChain:
    """Build the motor-failure CTMC for an airframe.

    States ``ok_k`` (k motors healthy, controllable) plus absorbing
    ``failed``. From ``ok_k`` the aggregate motor failure rate is
    ``k * lambda``; when the airframe can still tolerate the loss, the
    transition splits between successful reconfiguration (to ``ok_{k-1}``)
    and loss of control (to ``failed``) with probability
    ``reconfig_success`` / ``1 - reconfig_success``.
    """
    if rotor_count not in TOLERABLE_FAILURES:
        raise ValueError(f"unsupported rotor count {rotor_count}; pick from 4/6/8")
    if not 0.0 <= reconfig_success <= 1.0:
        raise ValueError("reconfig_success must be in [0, 1]")
    lam = failure_rate_per_hour / 3600.0  # per second
    tolerable = TOLERABLE_FAILURES[rotor_count]
    healthy_counts = [rotor_count - i for i in range(tolerable + 1)]
    states = [f"ok_{k}" for k in healthy_counts] + ["failed"]
    n = len(states)
    q = np.zeros((n, n))
    for i, k in enumerate(healthy_counts):
        total = k * lam
        if i < len(healthy_counts) - 1:
            q[i, i + 1] = total * reconfig_success
            q[i, n - 1] = total * (1.0 - reconfig_success)
        else:
            q[i, n - 1] = total
    return MotorChain(states=states, q=q, absorbing=frozenset({"failed"}))


#: Motor chains by (rotor count, failure rate, reconfiguration success),
#: shared by every :class:`PropulsionModel` with those parameters.
_CHAINS: dict[tuple[int, float, float], MotorChain] = {}
#: Propulsion PoF by (rotor count, failure rate, reconfiguration success,
#: failed motors, horizon), shared the same way.
_POF: dict[tuple[int, float, float, int, float], float] = {}


@dataclass
class PropulsionModel:
    """Runtime propulsion reliability estimator for one airframe.

    Tracks how many motors have already failed (reported by the flight
    controller) and answers "probability the propulsion system fails within
    the next ``horizon_s`` seconds".
    """

    rotor_count: int = 4
    failure_rate_per_hour: float = 1e-3
    reconfig_success: float = 0.9
    motors_failed: int = 0

    def __post_init__(self) -> None:
        key = (self.rotor_count, self.failure_rate_per_hour, self.reconfig_success)
        chain = _CHAINS.get(key)
        if chain is None:
            chain = _CHAINS[key] = motor_chain(*key)
        self.chain = chain

    def record_motor_failure(self) -> None:
        """Register one additional failed motor."""
        self.motors_failed += 1

    @property
    def controllable(self) -> bool:
        """Whether the airframe remains controllable after observed failures.

        Derived from the chain's state space: a healthy-count state the
        chain has no stage for means control is lost.
        """
        return f"ok_{self.rotor_count - self.motors_failed}" in self.chain.states

    def _current_state(self) -> str:
        if not self.controllable:
            return "failed"
        return f"ok_{self.rotor_count - self.motors_failed}"

    def failure_probability(self, horizon_s: float) -> float:
        """Probability of propulsion loss within ``horizon_s`` seconds.

        The value only changes when a motor fails, so it is memoized on
        the chain's parameters, the failed-motor count and the horizon,
        in one cache every model with those parameters shares. A miss
        solves :attr:`chain` with :func:`motor_transient`, which refuses
        a chain of another shape.
        """
        key = (
            self.rotor_count,
            self.failure_rate_per_hour,
            self.reconfig_success,
            self.motors_failed,
            horizon_s,
        )
        pof = _POF.get(key)
        if pof is None:
            state = self._current_state()
            if state == "failed":
                pof = 1.0
            else:
                p0 = np.zeros(len(self.chain.states))
                p0[self.chain.index(state)] = 1.0
                pof = float(motor_transient(self.chain, p0, horizon_s)[-1])
            _POF[key] = pof
        return pof
