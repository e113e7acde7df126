"""Chaos campaign experiment: the harness's self-test.

A self-contained experiment with no simulation dependencies. Each sample
draws from its assigned RNG stream (so serial/parallel equivalence is
meaningfully tested, not trivially true) and can sleep to emulate a
wall-time-bound sample, which is what the pool-overlap benchmark
measures. Samples can also crash, hang, flake, or hard-exit **by
config** — the test rig for the campaign engine's fault policy (timeout,
retries, quarantine, resume). The injected faults never touch the
sample's *result*: the deterministic payload is drawn fresh from the
sample's seed after the fault block, so a chaotic-but-survived campaign
fingerprints identically to one that never faulted.

Fault spec — an optional ``"fault"`` object inside a sample's config::

    {"mode": "crash",        # raise RuntimeError
             "hard-crash",   # os._exit(41): kill the worker process
             "hang",         # sleep fault["hang_s"] (default 3600 s)
             "flaky",        # fail the first fault["fails"] attempts
             "interrupt",    # raise KeyboardInterrupt
     "armed_file": "path",   # fault fires only while this file exists
     "dir": "path",          # flaky: directory for attempt markers
     "fails": 2,             # flaky: attempts that fail before success
     "hang_s": 3600.0}

``armed_file`` models "the experiment is broken, then someone fixes it":
create the file, run the campaign (failures are quarantined), delete the
file, re-run with ``resume=True`` — the grid completes and matches a
clean run. ``flaky`` models transient failures: attempt counts persist
in marker files under ``dir`` (keyed by the config's ``"i"``), so the
sample succeeds once the harness has retried it ``fails`` times —
regardless of whether those retries happened serially, in a pool, or
across a kill/resume boundary. Fault state lives on disk, not in the
config, precisely so the cache key (and the fingerprint) of a grid point
is the same before and after the "fix".
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import numpy as np

from repro.harness.campaign import CampaignExperiment, register_experiment
from repro.harness.timing import PhaseTimer


def _fault_armed(fault: dict) -> bool:
    armed_file = fault.get("armed_file")
    return armed_file is None or Path(armed_file).exists()


def _flake_should_fail(fault: dict, config: dict) -> bool:
    """Count this attempt in the marker file; fail while under quota."""
    directory = Path(fault["dir"])
    directory.mkdir(parents=True, exist_ok=True)
    marker = directory / f"sample-{config.get('i', 0)}.attempts"
    attempts = int(marker.read_text()) if marker.exists() else 0
    marker.write_text(str(attempts + 1))
    return attempts < int(fault.get("fails", 1))


def chaos_sample(config: dict, seed: int, timer: PhaseTimer) -> dict:
    """Optionally misbehave per ``config["fault"]``, then draw the result."""
    fault = dict(config.get("fault") or {})
    mode = fault.get("mode")
    if mode and _fault_armed(fault):
        if mode == "crash":
            raise RuntimeError("chaos: injected crash")
        if mode == "hard-crash":
            os._exit(41)
        if mode == "interrupt":
            raise KeyboardInterrupt("chaos: injected interrupt")
        if mode == "hang":
            with timer.phase("hang"):
                time.sleep(float(fault.get("hang_s", 3600.0)))
        if mode == "flaky" and _flake_should_fail(fault, config):
            raise RuntimeError("chaos: injected flake")
    sleep_s = float(config.get("sleep_s", 0.0))
    if sleep_s > 0.0:
        with timer.phase("sleep"):
            time.sleep(sleep_s)
    with timer.phase("draw"):
        rng = np.random.default_rng(seed)
        values = rng.normal(
            loc=float(config.get("loc", 0.0)), size=int(config.get("n", 256))
        )
    return {"mean": float(np.mean(values)), "std": float(np.std(values))}


def chaos_grid(preset: str) -> list[dict]:
    """``smoke``: 8 clean points; ``default``: 64; ``sleepy``: 64 × 50 ms;
    ``ci-flaky``: 12 points, every third flakes once (markers under
    ``.chaos-markers/``) and each sleeps long enough that a mid-run kill
    actually interrupts the sweep."""
    if preset == "smoke":
        return [{"i": i, "n": 256, "loc": float(i)} for i in range(8)]
    if preset == "default":
        return [{"n": 4096, "loc": float(i % 7)} for i in range(64)]
    if preset == "sleepy":
        return [{"n": 64, "loc": 0.0, "sleep_s": 0.05} for _ in range(64)]
    if preset == "ci-flaky":
        grid = []
        for i in range(12):
            config: dict = {"i": i, "n": 512, "loc": float(i % 5), "sleep_s": 0.4}
            if i % 3 == 0:
                config["fault"] = {
                    "mode": "flaky", "fails": 1, "dir": ".chaos-markers",
                }
            grid.append(config)
        return grid
    raise ValueError(f"unknown chaos grid preset {preset!r}")


CHAOS = register_experiment(
    CampaignExperiment(
        name="chaos",
        sample_fn=chaos_sample,
        grids=chaos_grid,
        describe="harness self-test: seeded draws, sleep, crash/hang/flake by config",
        presets=("smoke", "default", "sleepy", "ci-flaky"),
    )
)
