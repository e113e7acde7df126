"""Continuous-time Markov chain engine for reliability models.

SafeDrones expresses component degradation as CTMCs whose absorbing states
are failures. This module provides the generic machinery: generator-matrix
validation, transient probability via the matrix exponential and absorbing
failure probability.

No runtime monitor solves its chain here. The battery and motor chains
have closed-form transients
(:func:`repro.safedrones.battery.battery_transient`,
:func:`repro.safedrones.propulsion.motor_transient`) that every SafeDrones
monitor uses instead; this ``expm`` solve remains their readable definition
and the oracle the tests check the closed forms against. The closed forms
share this module's start checks (:func:`checked_start`) and end
(:func:`renormalised`, whose sum check is :func:`checked_total`), which
work on plain floats: the battery model keeps its distribution as a
tuple of floats and never builds an array.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


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
        from scipy.linalg import expm

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

    def failure_probability(self, p0: np.ndarray, t: float) -> float:
        """Total probability mass in absorbing states after ``t`` seconds."""
        pt = self.transient(p0, t)
        return float(sum(pt[self.index(s)] for s in self.absorbing))

    def reliability(self, p0: np.ndarray, t: float) -> float:
        """1 - failure probability at time ``t``."""
        return 1.0 - self.failure_probability(p0, t)

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


def checked_start(p0, n: int) -> tuple[float, ...]:
    """``p0`` as a tuple of floats, after the start checks of ``transient``.

    For the closed-form kernels that stand in for the ``expm`` solve: the
    same tolerances and error type as :meth:`ContinuousMarkovChain.transient`.
    A tuple is taken to hold floats already (the models keep their state
    that way), so only its length is checked; anything else goes through
    ``np.asarray(p0, dtype=float)`` as the ``expm`` solve does.
    """
    if type(p0) is not tuple:
        p0 = np.asarray(p0, dtype=float)
        if p0.shape != (n,):
            raise MarkovModelError("p0 has wrong length")
        p0 = tuple(p0.tolist())
    elif len(p0) != n:
        raise MarkovModelError("p0 has wrong length")
    # np.isclose(sum, 1.0, atol=1e-9) written out: |sum - 1| <= atol + rtol * 1.
    if not abs(sum(p0) - 1.0) <= 1e-9 + 1e-5:
        raise MarkovModelError("p0 must sum to 1")
    return p0


def checked_total(pt) -> float:
    """``sum(pt)``, refused outside 0.97–1.03 as ``transient`` refuses it."""
    total = sum(pt)
    if not 0.97 <= total <= 1.03:
        raise MarkovModelError(
            f"transient solve lost normalisation (sum={total:.6f})"
        )
    return total


def renormalised(pt: list[float]) -> tuple[float, ...]:
    """A closed-form kernel's result, ended as ``transient`` ends its solve.

    Clips tiny negatives, refuses a sum outside 0.97–1.03 and renormalises,
    on floats: each entry divided by the total rounds as NumPy's does.
    ``0.0 if p < 0.0 else p`` is ``max(p, 0.0)``, NaN and ``-0.0`` included.
    """
    pt = [0.0 if p < 0.0 else p for p in pt]
    total = checked_total(pt)
    return tuple([p / total for p in pt])
