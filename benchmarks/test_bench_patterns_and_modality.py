"""Ablation bench: SAR search-pattern choice.

When a survivor's last known position (datum) is known, how fast does
each pattern put the camera over them?
"""

import math

import numpy as np
from conftest import print_table, run_once

from repro.sar.coverage import boustrophedon_path
from repro.sar.patterns import expanding_square, pattern_length_m, sector_search

DATUM = (150.0, 150.0)
ALTITUDE = 20.0
SPEED = 10.0


def time_to_reach(path, target, swath_half=11.0):
    """Flight time until the path first passes within the swath of target."""
    elapsed = 0.0
    for (x1, y1, _), (x2, y2, _) in zip(path, path[1:]):
        seg = math.dist((x1, y1), (x2, y2))
        dx, dy = x2 - x1, y2 - y1
        norm = dx * dx + dy * dy
        px, py = target
        if norm > 0.0:
            t = max(0.0, min(1.0, ((px - x1) * dx + (py - y1) * dy) / norm))
        else:
            t = 0.0
        closest = math.hypot(px - (x1 + t * dx), py - (y1 + t * dy))
        if closest <= swath_half:
            return (elapsed + t * seg) / SPEED
        elapsed += seg
    return None


def test_search_pattern_time_to_find(benchmark):
    """Survivors scattered around the datum; which pattern reaches them first?"""

    def sweep():
        rng = np.random.default_rng(17)
        # Survivors near the datum (Rayleigh-distributed drift).
        survivors = [
            (
                DATUM[0] + r * math.sin(theta),
                DATUM[1] + r * math.cos(theta),
            )
            for r, theta in zip(
                rng.rayleigh(35.0, 60), rng.uniform(0, 2 * math.pi, 60)
            )
        ]
        patterns = {
            "expanding_square": expanding_square(DATUM, ALTITUDE, max_radius_m=120.0),
            "sector_search": sector_search(DATUM, ALTITUDE, radius_m=120.0),
            "boustrophedon": boustrophedon_path(
                ((DATUM[0] - 120.0, DATUM[0] + 120.0),
                 (DATUM[1] - 120.0, DATUM[1] + 120.0)),
                ALTITUDE,
            ),
        }
        rows = []
        for name, path in patterns.items():
            times = [time_to_reach(path, s) for s in survivors]
            found = [t for t in times if t is not None]
            rows.append(
                (name,
                 pattern_length_m(path),
                 np.mean(found) if found else float("nan"),
                 np.median(found) if found else float("nan"),
                 len(found) / len(survivors))
            )
        return rows

    rows = run_once(benchmark, sweep)
    print_table(
        "Search-pattern ablation — datum-centred survivors",
        ["pattern", "path length [m]", "mean time-to-find [s]",
         "median [s]", "found fraction"],
        [
            [r[0], f"{r[1]:.0f}", f"{r[2]:.0f}", f"{r[3]:.0f}", f"{r[4]:.2f}"]
            for r in rows
        ],
    )
    by_name = {r[0]: r for r in rows}
    # Datum-centred prior: the expanding square finds survivors sooner
    # (median) than the uniform sweep.
    assert by_name["expanding_square"][3] < by_name["boustrophedon"][3]
