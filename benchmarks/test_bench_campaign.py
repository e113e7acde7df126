"""Campaign harness benchmark: pool speedup and overhead.

The acceptance bar for the parallel campaign runner: a 64-sample
campaign on 4 workers must run at least 2x faster than the same campaign
serial, while producing sample-for-sample identical results. The
workload is the chaos experiment's ``sleepy`` grid (64 samples, 50 ms
each), which measures what the pool actually provides — overlap of
wall-time-bound samples — independently of how many cores the CI box
happens to have.
"""

from __future__ import annotations

import time

import repro.harness.chaos  # noqa: F401  (registers "chaos")
from repro.harness.campaign import run_campaign

from conftest import print_table, run_once

GRID = "sleepy"  # 64 samples x 50 ms
ROOT_SEED = 99


def test_bench_campaign_parallel_speedup(benchmark):
    start = time.perf_counter()
    serial = run_campaign("chaos", grid=GRID, root_seed=ROOT_SEED, workers=1)
    serial_s = time.perf_counter() - start

    parallel = run_once(
        benchmark,
        run_campaign,
        "chaos",
        grid=GRID,
        root_seed=ROOT_SEED,
        workers=4,
    )
    parallel_s = parallel.manifest["totals"]["wall_s"]
    speedup = serial_s / parallel_s

    print_table(
        "Campaign runner: 64-sample sweep, serial vs 4 workers",
        ["mode", "wall_s", "samples"],
        [
            ["serial", f"{serial_s:.2f}", len(serial.records)],
            ["4 workers", f"{parallel_s:.2f}", len(parallel.records)],
            ["speedup", f"{speedup:.2f}x", ""],
        ],
    )
    benchmark.extra_info["serial_s"] = round(serial_s, 3)
    benchmark.extra_info["parallel_s"] = round(parallel_s, 3)
    benchmark.extra_info["speedup"] = round(speedup, 2)

    # Equivalence first: a fast-but-different sweep would be worthless.
    assert parallel.fingerprint == serial.fingerprint
    assert parallel.results == serial.results
    assert len(parallel.records) == 64
    assert speedup >= 2.0, f"4-worker campaign only {speedup:.2f}x faster"


def test_bench_campaign_cache_rerun(benchmark, tmp_path):
    run_campaign(
        "chaos", grid="default", root_seed=ROOT_SEED, cache_dir=tmp_path
    )
    cached = run_once(
        benchmark,
        run_campaign,
        "chaos",
        grid="default",
        root_seed=ROOT_SEED,
        cache_dir=tmp_path,
    )
    totals = cached.manifest["totals"]
    print_table(
        "Campaign runner: warm-cache re-run (64 samples)",
        ["samples", "cached", "wall_s"],
        [[totals["samples"], totals["cached"], f"{totals['wall_s']:.4f}"]],
    )
    benchmark.extra_info.update(totals)
    assert totals["cached"] == totals["samples"] == 64
