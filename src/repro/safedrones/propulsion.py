"""Markov propulsion reliability with reconfiguration.

After Aslansefat et al., "A Markov process-based approach for reliability
evaluation of the propulsion system in multi-rotor drones" (DoCEIS 2019),
which the paper cites as the SafeDrones propulsion model: the chain counts
failed motors; airframes with redundant rotors (hexa/octa) can
*reconfigure* (remap thrust allocation) to tolerate failures, while a
quadrotor is lost on its first motor-out.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.safedrones.markov import ContinuousMarkovChain

#: Motors that may fail before the airframe becomes uncontrollable, by
#: rotor count, assuming optimal reconfiguration of the thrust mixer.
TOLERABLE_FAILURES = {4: 0, 6: 1, 8: 2}


def motor_chain(
    rotor_count: int,
    failure_rate_per_hour: float = 1e-3,
    reconfig_success: float = 0.9,
) -> ContinuousMarkovChain:
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
    return ContinuousMarkovChain(states=states, q=q, absorbing=frozenset({"failed"}))


def motor_chain_from_survival(
    rotor_count: int,
    survival_by_count: dict[int, float],
    failure_rate_per_hour: float = 1e-3,
) -> ContinuousMarkovChain:
    """Build the motor CTMC from an arrangement's exact survival table.

    ``survival_by_count[k]`` is the fraction of k-failure combinations
    that remain controllable (from
    :class:`repro.safedrones.arrangement.ArrangementAnalysis`). Each
    tolerated stage's split between "reconfigure successfully" and "lose
    control" is the conditional survival of the next failure.
    """
    lam = failure_rate_per_hour / 3600.0
    max_tolerable = max(
        (k for k, p in survival_by_count.items() if p > 0.0), default=0
    )
    healthy_counts = [rotor_count - i for i in range(max_tolerable + 1)]
    states = [f"ok_{k}" for k in healthy_counts] + ["failed"]
    n = len(states)
    q = np.zeros((n, n))
    for i, k in enumerate(healthy_counts):
        failures_so_far = rotor_count - k
        total = k * lam
        current = survival_by_count.get(failures_so_far, 0.0)
        nxt = survival_by_count.get(failures_so_far + 1, 0.0)
        success = min(1.0, nxt / current) if current > 0.0 else 0.0
        if i < len(healthy_counts) - 1:
            q[i, i + 1] = total * success
            q[i, n - 1] = total * (1.0 - success)
        else:
            q[i, n - 1] = total
    return ContinuousMarkovChain(states=states, q=q, absorbing=frozenset({"failed"}))


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
        self.chain = motor_chain(
            self.rotor_count, self.failure_rate_per_hour, self.reconfig_success
        )
        self._memo: dict[tuple[int, int, float], float] = {}
        self._memo_chain = self.chain

    @classmethod
    def from_arrangement(
        cls, analysis, failure_rate_per_hour: float = 1e-3
    ) -> "PropulsionModel":
        """Calibrate the Markov model from an arrangement analysis.

        The chain is rebuilt from the arrangement's exact per-count
        survival table, so a PNPNPN hexarotor's combination-dependent
        second-failure survivability (see
        :class:`repro.safedrones.arrangement.ArrangementAnalysis`) flows
        into the runtime reliability numbers.
        """
        model = cls(
            rotor_count=analysis.rotor_count,
            failure_rate_per_hour=failure_rate_per_hour,
            reconfig_success=analysis.effective_reconfig_success(0),
        )
        model.chain = motor_chain_from_survival(
            analysis.rotor_count, analysis.survival_by_count, failure_rate_per_hour
        )
        return model

    def record_motor_failure(self) -> None:
        """Register one additional failed motor."""
        self.motors_failed += 1

    @property
    def controllable(self) -> bool:
        """Whether the airframe remains controllable after observed failures.

        Derived from the chain's state space, so arrangement-calibrated
        models (which may tolerate more failures than the default table)
        answer consistently.
        """
        return f"ok_{self.rotor_count - self.motors_failed}" in self.chain.states

    def _current_state(self) -> str:
        if not self.controllable:
            return "failed"
        return f"ok_{self.rotor_count - self.motors_failed}"

    def failure_probability(self, horizon_s: float) -> float:
        """Probability of propulsion loss within ``horizon_s`` seconds.

        The value only changes when a motor fails, so it is memoized on
        the current state (rotor and failed-motor counts) and horizon.
        The memo is dropped whenever ``chain`` is replaced, as
        :meth:`from_arrangement` does.
        """
        if self._memo_chain is not self.chain:
            self._memo = {}
            self._memo_chain = self.chain
        key = (self.rotor_count, self.motors_failed, horizon_s)
        pof = self._memo.get(key)
        if pof is None:
            state = self._current_state()
            if state == "failed":
                pof = 1.0
            else:
                p0 = np.zeros(len(self.chain.states))
                p0[self.chain.index(state)] = 1.0
                pof = self.chain.failure_probability(p0, horizon_s)
            self._memo[key] = pof
        return pof

    def mttf_hours(self) -> float:
        """Mean time to propulsion failure from the current state, hours."""
        state = self._current_state()
        if state == "failed":
            return 0.0
        return self.chain.mttf(state) / 3600.0
