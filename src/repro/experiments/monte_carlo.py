"""Monte Carlo robustness study over the Fig. 5 scenario.

The paper evaluates one battery-fault trajectory; this study sweeps the
scenario space — fault onset time, post-fault SoC, and random seed — and
reports the availability advantage of the SESAME policy as a
distribution, answering "does the Fig. 5 conclusion survive scenario
perturbation?" (it should: the SESAME policy dominates whenever the fault
leaves enough margin to finish the mission, and ties otherwise).

The sweep runs on the :mod:`repro.harness` campaign engine: each grid
point is an independent sample with its own RNG stream, so the study
shards across a worker pool (``workers=...`` or
``python -m repro campaign monte-carlo --workers 4``) with bit-identical
results at any worker count, and completed points are cached on disk.
"""

from __future__ import annotations

from dataclasses import dataclass

import repro.experiments.fig5_battery as fig5
from repro.harness.campaign import (
    CampaignExperiment,
    CampaignResult,
    register_experiment,
)
from repro.harness.timing import PhaseTimer


@dataclass(frozen=True)
class MonteCarloSample:
    """One perturbed Fig. 5 run."""

    seed: int
    fault_time_s: float
    soc_after_fault: float
    availability_with: float
    availability_without: float
    completed_one_pass: bool


@dataclass(frozen=True)
class MonteCarloResult:
    """Aggregate over all samples."""

    samples: list[MonteCarloSample]

    @property
    def mean_advantage(self) -> float:
        """Mean availability advantage (with - without)."""
        diffs = [
            s.availability_with - s.availability_without for s in self.samples
        ]
        return sum(diffs) / len(diffs)

    @property
    def win_rate(self) -> float:
        """Fraction of scenarios where SESAME strictly wins."""
        wins = sum(
            1
            for s in self.samples
            if s.availability_with > s.availability_without + 1e-9
        )
        return wins / len(self.samples)

    @property
    def one_pass_rate(self) -> float:
        """Fraction of scenarios completed without a mid-mission abort."""
        return sum(1 for s in self.samples if s.completed_one_pass) / len(self.samples)


def monte_carlo_sample(config: dict, seed: int, timer: PhaseTimer) -> dict:
    """One campaign sample: a Fig. 5 run at a perturbed scenario point.

    ``config`` may pin an explicit ``seed``; otherwise the
    harness-assigned per-sample stream seed is used. The Fig. 5
    scenario constants are module-level, so they are
    patched and restored around the run — safe in pool workers, where
    each sample owns its process's module state.
    """
    run_seed = int(config.get("seed", seed))
    original = (fig5.FAULT_TIME_S, fig5.SOC_AFTER_FAULT)
    try:
        fig5.FAULT_TIME_S = float(config["fault_time_s"])
        fig5.SOC_AFTER_FAULT = float(config["soc_after_fault"])
        with timer.phase("simulate"):
            result = fig5.run_fig5_battery_experiment(seed=run_seed)
    finally:
        fig5.FAULT_TIME_S, fig5.SOC_AFTER_FAULT = original
    return {
        "seed": run_seed,
        "fault_time_s": float(config["fault_time_s"]),
        "soc_after_fault": float(config["soc_after_fault"]),
        "availability_with": result.availability_with,
        "availability_without": result.availability_without,
        "completed_one_pass": (
            result.with_sesame.abort_time is None
            and result.with_sesame.mission_complete_time is not None
        ),
    }


def monte_carlo_grid(preset: str) -> list[dict]:
    """Scenario grids around the paper's (250 s, 0.40 SoC) point."""
    if preset == "smoke":
        axes = ((250.0, 350.0), (0.40,), 1)
    elif preset == "default":
        axes = ((150.0, 250.0, 350.0), (0.35, 0.40, 0.45), 2)
    elif preset == "full":
        axes = (
            (100.0, 175.0, 250.0, 325.0, 400.0),
            (0.30, 0.35, 0.40, 0.45, 0.50),
            4,
        )
    else:
        raise ValueError(f"unknown monte-carlo grid preset {preset!r}")
    fault_times, soc_levels, replicates = axes
    return [
        {
            "fault_time_s": fault_time,
            "soc_after_fault": soc,
            "replicate": replicate,
        }
        for fault_time in fault_times
        for soc in soc_levels
        for replicate in range(replicates)
    ]


def result_from_campaign(campaign: CampaignResult) -> MonteCarloResult:
    """Reassemble the aggregate study from campaign sample records."""
    return MonteCarloResult(
        samples=[
            MonteCarloSample(
                seed=r["seed"],
                fault_time_s=r["fault_time_s"],
                soc_after_fault=r["soc_after_fault"],
                availability_with=r["availability_with"],
                availability_without=r["availability_without"],
                completed_one_pass=r["completed_one_pass"],
            )
            for r in campaign.results
        ]
    )


def summarize_monte_carlo(campaign: CampaignResult) -> str:
    """Headline lines for the CLI."""
    result = result_from_campaign(campaign)
    return (
        f"samples:        {len(result.samples)}\n"
        f"mean advantage: {result.mean_advantage:+.4f}\n"
        f"win rate:       {result.win_rate:.3f}\n"
        f"one-pass rate:  {result.one_pass_rate:.3f}"
    )


MONTE_CARLO_CAMPAIGN = register_experiment(
    CampaignExperiment(
        name="monte-carlo",
        sample_fn=monte_carlo_sample,
        grids=monte_carlo_grid,
        describe="Fig. 5 battery-fault robustness sweep",
        summarize=summarize_monte_carlo,
    )
)

