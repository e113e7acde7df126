"""Serial-vs-parallel equivalence: the harness's core guarantee.

The same campaign run with 1 worker and with a pool must produce
identical manifests (deterministic subset) and sample-for-sample
identical results — the property that makes golden-trace pinning and
cached re-runs trustworthy.
"""

from __future__ import annotations

import pytest

import repro.harness.chaos  # noqa: F401  (registers "chaos")
from repro.experiments.monte_carlo import MONTE_CARLO_CAMPAIGN, result_from_campaign
from repro.harness.campaign import run_campaign
from repro.harness.manifest import deterministic_view


class TestSyntheticEquivalence:
    """Synthetic draws: chaos's clean 64-point grid, real pool fan-out."""

    @pytest.fixture(scope="class")
    def serial(self):
        return run_campaign("chaos", grid="default", root_seed=123, workers=1)

    @pytest.fixture(scope="class")
    def parallel(self):
        return run_campaign("chaos", grid="default", root_seed=123, workers=4)

    def test_fingerprints_identical(self, serial, parallel):
        assert serial.fingerprint == parallel.fingerprint

    def test_sample_for_sample_identical(self, serial, parallel):
        assert serial.results == parallel.results
        for a, b in zip(serial.records, parallel.records):
            assert a.index == b.index
            assert a.seed == b.seed
            assert a.config == b.config

    def test_deterministic_manifests_identical(self, serial, parallel):
        assert deterministic_view(serial.manifest) == deterministic_view(
            parallel.manifest
        )

    def test_parallel_run_used_pool_workers(self, parallel):
        workers = {record.worker for record in parallel.records}
        assert len(workers) > 1, f"expected pool fan-out, got {workers}"


class TestMonteCarloEquivalence:
    """The acceptance-criterion experiment, on the smoke grid."""

    def test_workers_1_and_4_agree(self):
        serial = run_campaign(
            MONTE_CARLO_CAMPAIGN, grid="smoke", root_seed=0, workers=1
        )
        parallel = run_campaign(
            MONTE_CARLO_CAMPAIGN, grid="smoke", root_seed=0, workers=4
        )
        assert serial.fingerprint == parallel.fingerprint
        assert serial.results == parallel.results
        a = result_from_campaign(serial)
        b = result_from_campaign(parallel)
        assert a.samples == b.samples
        assert a.mean_advantage == b.mean_advantage
