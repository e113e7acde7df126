"""Per-sample RNG streams that survive sharding.

Deriving sample seeds as ``root_seed + i`` gives overlapping or
correlated streams, and seeding from "whatever the worker drew last"
makes results depend on scheduling order. Instead the campaign parent
spawns one :class:`numpy.random.SeedSequence` child per grid point *up
front, in grid order*; child ``i`` is fully determined by
``(root_seed, spawn_key=(i,))``, so the same grid at the same root seed
yields the same per-sample streams whether the campaign runs on one
worker or sixteen, and independent of which worker ends up executing
which sample.
"""

from __future__ import annotations

import numpy as np


def spawn_sample_seeds(root_seed: int, n: int) -> list[int]:
    """Derive ``n`` independent integer seeds from ``root_seed``.

    Returns one 63-bit integer per sample, drawn from the sample's own
    spawned :class:`~numpy.random.SeedSequence` child. The integer form
    (rather than the SeedSequence itself) keeps manifests JSON-friendly
    and lets any experiment that takes ``seed: int`` reproduce a single
    sample directly from its manifest entry.
    """
    if n < 0:
        raise ValueError(f"cannot spawn {n} sample seeds")
    children = np.random.SeedSequence(root_seed).spawn(n)
    # Mask to 63 bits so the seed round-trips through JSON readers that
    # only guarantee signed-64 integers.
    return [int(child.generate_state(1, dtype=np.uint64)[0] >> 1) for child in children]

