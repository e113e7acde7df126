"""Property suite for the swarm tasking stack: determinism + invariants.

Two families of guarantees:

* **Determinism** — one seed produces one byte-exact ledger, and the
  ``swarm-sizing`` campaign produces one manifest fingerprint regardless
  of worker count or how many times it runs. This is what lets the
  golden trace (``tests/test_golden_swarm.py``) and the CI swarm-smoke
  job treat a fingerprint mismatch as a regression, not noise.
* **Invariants** — random fleets (K ∈ 1–8, ρ ∈ 1–16, lossy links,
  scripted deaths and demotions) always close their books: every
  detected PoI ends serviced or explicitly orphaned, no follower ever
  owns two tasks at once, and service latency is non-negative. Checked
  both through the registered ``swarm_tasking`` oracle and by explicit
  re-derivation from the raw ledger, so an oracle bug can't silently
  vouch for a protocol bug.
"""

from __future__ import annotations

import multiprocessing

import numpy as np
import pytest

from repro.harness.campaign import run_campaign
from repro.harness.fuzz.campaign import fuzz_grid, fuzz_sample
from repro.harness.fuzz.generator import ScenarioGenerator
from repro.harness.oracles import SWARM_OUTCOMES, run_swarm_oracles
from repro.harness.timing import PhaseTimer
from repro.swarm.experiment import SWARM_SIZING_CAMPAIGN
from repro.swarm.sim import build_swarm, run_swarm

_HAS_FORK = "fork" in multiprocessing.get_all_start_methods()

#: A lossy, faulted scenario small enough to run many times in a test.
BASE_CONFIG = {
    "k_leaders": 2,
    "rho": 3,
    "n_pois": 40,
    "area_m": 400.0,
    "comm_radius_m": 350.0,
    "link_loss": 0.15,
    "horizon_s": 120.0,
    "faults": [
        {"type": "follower_loss", "uav": "f00_01", "at": 30.0},
        {"type": "leader_demotion", "uav": "lead01", "at": 60.0},
    ],
}


class TestDeterminism:
    def test_same_seed_byte_identical_ledger(self):
        first = run_swarm(dict(BASE_CONFIG), seed=42)
        second = run_swarm(dict(BASE_CONFIG), seed=42)
        assert first.ledger.to_json() == second.ledger.to_json()
        assert first.ledger_fingerprint == second.ledger_fingerprint
        assert first.summary() == second.summary()
        assert first.latency_trace == second.latency_trace
        assert first.decisions == second.decisions

    def test_seed_reaches_the_world(self):
        # Different seed ⇒ different PoI field ⇒ different ledger; a
        # fingerprint that ignores the seed would vouch for anything.
        first = run_swarm(dict(BASE_CONFIG), seed=42)
        other = run_swarm(dict(BASE_CONFIG), seed=43)
        assert first.ledger_fingerprint != other.ledger_fingerprint

    def test_campaign_fingerprint_identical_across_clean_runs(self):
        first = run_campaign(SWARM_SIZING_CAMPAIGN, grid="smoke", workers=1)
        second = run_campaign(SWARM_SIZING_CAMPAIGN, grid="smoke", workers=1)
        assert all(r.status == "ok" for r in first.records)
        assert first.fingerprint == second.fingerprint

    @pytest.mark.skipif(not _HAS_FORK, reason="needs fork start method")
    def test_campaign_fingerprint_identical_serial_vs_parallel(self):
        serial = run_campaign(SWARM_SIZING_CAMPAIGN, grid="smoke", workers=1)
        parallel = run_campaign(SWARM_SIZING_CAMPAIGN, grid="smoke", workers=2)
        assert all(r.status == "ok" for r in parallel.records)
        assert serial.fingerprint == parallel.fingerprint

    def test_fuzz_swarm_draw_is_deterministic(self):
        first = ScenarioGenerator(11).generate_swarm("hostile")
        second = ScenarioGenerator(11).generate_swarm("hostile")
        assert first == second
        corpus = {
            ScenarioGenerator(s).generate_swarm("hostile")["seed"]
            for s in range(8)
        }
        assert len(corpus) == 8  # root seed varies the drawn scenario


class TestLosslessLinks:
    @pytest.mark.parametrize(
        "timing",
        [
            {},
            {"dt": 0.1},
            {"dt": 0.25, "link_latency_s": 0.3, "link_jitter_s": 0.1},
            {"dt": 0.5, "link_latency_s": 0.5, "link_jitter_s": 0.0},
            {"link_latency_s": 0.0, "link_jitter_s": 0.0},
        ],
    )
    def test_no_channel_retransmits(self, timing):
        # Every pair in range and no loss: each reliable message is ACK'd
        # before its retransmit timer fires, on every channel endpoint.
        config = {
            "k_leaders": 2, "rho": 3, "n_pois": 50, "area_m": 400.0,
            "comm_radius_m": 1000.0, "link_loss": 0.0, "horizon_s": 120.0,
            **timing,
        }
        sim = build_swarm(config, seed=123)
        run = sim.run()
        channels = [sim.followers[f].channel for f in sim.follower_names] + [
            sim.leaders[name]._slots[f].channel
            for name in sim.leader_names
            for f in sim.leaders[name].roster
        ]
        assert len(channels) == 2 * len(sim.follower_names)
        assert sum(c.stats.sent for c in channels) > 0
        assert [c.stats.retries for c in channels] == [0] * len(channels)
        assert run.metrics["messages"]["data"] == run.metrics["messages"]["ack"]
        assert run.metrics["serviced"] > 0


def _random_config(rng: np.random.Generator) -> dict:
    """One random fleet in the satellite's advertised envelope."""
    k = int(rng.integers(1, 9))
    rho = int(rng.integers(1, 17))
    area = float(round(rng.uniform(300.0, 800.0)))
    config = {
        "k_leaders": k,
        "rho": rho,
        "n_pois": int(rng.integers(5, 60)),
        "area_m": area,
        "comm_radius_m": float(round(rng.uniform(0.4 * area, 1.2 * area))),
        "link_loss": float(round(rng.uniform(0.0, 0.5), 3)),
        "horizon_s": 90.0,
        "task_timeout_s": float(round(rng.uniform(20.0, 90.0), 1)),
        "follower_dead_after_s": float(round(rng.uniform(20.0, 60.0), 1)),
    }
    faults = []
    if rng.random() < 0.5:
        faults.append(
            {
                "type": "follower_loss",
                "uav": f"f{int(rng.integers(k)):02d}_{int(rng.integers(rho)):02d}",
                "at": float(round(rng.uniform(5.0, 60.0), 1)),
            }
        )
    if rng.random() < 0.4:
        faults.append(
            {
                "type": "leader_demotion",
                "uav": f"lead{int(rng.integers(k)):02d}",
                "at": float(round(rng.uniform(5.0, 60.0), 1)),
            }
        )
    config["faults"] = faults
    return config


class TestRandomFleetInvariants:
    @pytest.mark.parametrize("case", range(10))
    def test_oracle_passes(self, case):
        rng = np.random.default_rng(5000 + case)
        config = _random_config(rng)
        report = run_swarm_oracles(config, seed=case)
        assert report.passed, (config, report.to_dict())

    @pytest.mark.parametrize("case", range(10))
    def test_explicit_ledger_invariants(self, case):
        rng = np.random.default_rng(5000 + case)
        config = _random_config(rng)
        run = run_swarm(config, seed=case)

        # Every detected PoI is accounted for: serviced or explicitly
        # orphaned — nothing left pending/assigned after finalize.
        assert run.metrics["serviced"] + run.metrics["orphaned"] == len(run.ledger)
        assert run.metrics["detected"] == len(run.ledger)
        by_follower: dict[str, list[tuple[float, float | None]]] = {}
        for poi_id in sorted(run.ledger.tasks):
            task = run.ledger.tasks[poi_id]
            assert task.state in ("serviced", "orphaned")
            outcomes = [a.outcome for a in task.assignments]
            assert all(o in SWARM_OUTCOMES for o in outcomes)
            if task.state == "serviced":
                assert outcomes.count("confirmed") == 1
                assert task.service_latency_s is not None
                assert task.service_latency_s >= 0.0
                assert task.t_serviced >= task.t_detected
            else:
                assert task.orphan_reason in ("horizon", "no_leader")
                assert "confirmed" not in outcomes
            for assignment in task.assignments:
                by_follower.setdefault(assignment.follower, []).append(
                    (assignment.t_assign, assignment.t_closed)
                )

        # No double ownership: one follower's ownership intervals never
        # overlap, across all tasks it ever touched.
        for intervals in by_follower.values():
            intervals.sort(key=lambda iv: iv[0])
            for (_, end), (start, _) in zip(intervals, intervals[1:]):
                assert end is not None and end <= start

        # The latency trace agrees with the ledger it was derived from.
        for entry in run.latency_trace:
            assert entry["latency_s"] == entry["t_serviced"] - entry["t_detected"]
            assert entry["latency_s"] >= 0.0


class TestFuzzIntegration:
    def test_hostile_grid_carries_swarm_cases(self):
        grid = fuzz_grid("hostile:8")
        kinds = [config.get("kind", "sar") for config in grid]
        assert kinds == ["sar"] * 6 + ["swarm"] * 2
        # The CI smoke tier stays pure SAR — its documented fingerprint
        # must not move because swarm fuzzing exists.
        assert all("kind" not in config for config in fuzz_grid("smoke:5"))

    def test_swarm_fuzz_sample_end_to_end(self):
        record = fuzz_sample(
            {"profile": "hostile", "case": 0, "kind": "swarm"},
            seed=3,
            timer=PhaseTimer(),
        )
        assert record["kind"] == "swarm"
        assert record["oracles"]["passed"], record["oracles"]
        assert {"swarm_tasking", "no_unhandled_exception"} <= set(
            record["oracles"]["checked"]
        )
