"""Situation discretisation: mission state → SINADRA inputs.

Maps the flight altitude onto the risk model's band vocabulary, relative
to the detector's training altitude.
"""

from __future__ import annotations

from repro.sar.detection import TRAINING_ALTITUDE_M

HIGH_ALTITUDE_FACTOR = 1.2
"""Altitudes above this multiple of the training altitude count as high."""


def altitude_band(altitude_m: float) -> str:
    """Discretise an altitude into the risk model's band vocabulary."""
    if altitude_m <= 0.0:
        raise ValueError("altitude must be positive")
    return "high" if altitude_m > HIGH_ALTITUDE_FACTOR * TRAINING_ALTITUDE_M else "low"
