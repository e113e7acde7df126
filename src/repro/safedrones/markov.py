"""Continuous-time Markov chain engine for reliability models.

SafeDrones expresses component degradation as CTMCs whose absorbing states
are failures. This module provides the generic machinery: generator-matrix
validation, transient probability via the matrix exponential, absorbing
failure probability, and mean time to failure via the fundamental matrix.

The propulsion model solves its chain here. The battery chain has a
closed-form transient (:func:`repro.safedrones.battery.battery_transient`)
that the runtime monitors use instead; this ``expm`` solve remains its
readable definition and the oracle the tests check the closed form against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm


class MarkovModelError(ValueError):
    """Raised when a chain definition is structurally invalid."""


@dataclass
class ContinuousMarkovChain:
    """A CTMC over named states with generator matrix ``q``.

    ``q[i, j]`` (i != j) is the transition rate from state i to state j in
    events per second; diagonal entries are set so each row sums to zero.
    ``absorbing`` names the failure states.
    """

    states: list[str]
    q: np.ndarray
    absorbing: frozenset[str] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        self.q = np.asarray(self.q, dtype=float)
        n = len(self.states)
        if self.q.shape != (n, n):
            raise MarkovModelError(
                f"generator is {self.q.shape}, expected ({n}, {n})"
            )
        if len(set(self.states)) != n:
            raise MarkovModelError("state names must be unique")
        off_diag = self.q - np.diag(np.diag(self.q))
        if (off_diag < -1e-12).any():
            raise MarkovModelError("off-diagonal rates must be non-negative")
        # Normalise the diagonal so rows sum to zero exactly.
        np.fill_diagonal(self.q, 0.0)
        np.fill_diagonal(self.q, -self.q.sum(axis=1))
        unknown = self.absorbing - set(self.states)
        if unknown:
            raise MarkovModelError(f"unknown absorbing states: {sorted(unknown)}")
        for name in self.absorbing:
            i = self.index(name)
            if np.abs(self.q[i]).max() > 1e-12:
                raise MarkovModelError(f"absorbing state {name!r} has outgoing rate")

    def index(self, state: str) -> int:
        """Index of a state name."""
        return self.states.index(state)

    def transient(self, p0: np.ndarray, t: float) -> np.ndarray:
        """State distribution after ``t`` seconds from distribution ``p0``."""
        p0 = np.asarray(p0, dtype=float)
        if p0.shape != (len(self.states),):
            raise MarkovModelError("p0 has wrong length")
        if not np.isclose(p0.sum(), 1.0, atol=1e-9):
            raise MarkovModelError("p0 must sum to 1")
        if t < 0.0:
            raise MarkovModelError("t must be non-negative")
        pt = p0 @ expm(self.q * t)
        # expm loses precision on nearly-defective generators (two stage
        # rates almost equal -> near-Jordan structure). The result must
        # still be a distribution: clip tiny negatives and renormalise,
        # refusing only genuinely broken results.
        pt = np.clip(pt, 0.0, None)
        total = pt.sum()
        if not 0.97 <= total <= 1.03:
            raise MarkovModelError(
                f"transient solve lost normalisation (sum={total:.6f})"
            )
        return pt / total

    def transient_from(self, state: str, t: float) -> np.ndarray:
        """State distribution after ``t`` seconds starting surely in ``state``."""
        p0 = np.zeros(len(self.states))
        p0[self.index(state)] = 1.0
        return self.transient(p0, t)

    def failure_probability(self, p0: np.ndarray, t: float) -> float:
        """Total probability mass in absorbing states after ``t`` seconds."""
        pt = self.transient(p0, t)
        return float(sum(pt[self.index(s)] for s in self.absorbing))

    def reliability(self, p0: np.ndarray, t: float) -> float:
        """1 - failure probability at time ``t``."""
        return 1.0 - self.failure_probability(p0, t)

    def mttf(self, start: str) -> float:
        """Mean time to absorption starting from ``start``.

        Uses the fundamental matrix of the transient sub-generator:
        ``MTTF = -1 * (Q_tt^{-1} @ 1)`` restricted to transient states.
        """
        transient_idx = [i for i, s in enumerate(self.states) if s not in self.absorbing]
        if self.index(start) not in transient_idx:
            return 0.0
        q_tt = self.q[np.ix_(transient_idx, transient_idx)]
        ones = np.ones(len(transient_idx))
        times = np.linalg.solve(q_tt, -ones)
        return float(times[transient_idx.index(self.index(start))])

    def scaled(self, factor: float) -> "ContinuousMarkovChain":
        """A copy of this chain with all rates multiplied by ``factor``.

        Used for stress acceleration: e.g. thermal stress multiplies battery
        degradation rates by an Arrhenius factor.
        """
        if factor < 0.0:
            raise MarkovModelError("rate factor must be non-negative")
        return ContinuousMarkovChain(
            states=list(self.states), q=self.q * factor, absorbing=self.absorbing
        )


def series_reliability(reliabilities: list[float]) -> float:
    """Reliability of independent components in series (all must survive)."""
    out = 1.0
    for r in reliabilities:
        if not 0.0 <= r <= 1.0 + 1e-12:
            raise ValueError(f"reliability out of range: {r}")
        out *= min(r, 1.0)
    return out


def parallel_reliability(reliabilities: list[float]) -> float:
    """Reliability of independent components in parallel (any may survive)."""
    out = 1.0
    for r in reliabilities:
        if not 0.0 <= r <= 1.0 + 1e-12:
            raise ValueError(f"reliability out of range: {r}")
        out *= 1.0 - min(r, 1.0)
    return 1.0 - out
