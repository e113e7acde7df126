"""The registered ``fuzz`` campaign: generated scenarios vs. the oracles.

Each grid point regenerates its scenario *inside* the sample function
from the harness-spawned per-sample seed, so a scenario is reproducible
from its manifest record alone: ``ScenarioGenerator(record.seed)
.generate(record.config["profile"])`` is the exact input that ran (for
``kind="swarm"`` grid points, ``.generate_swarm(...)`` against the
swarm-tasking oracle suite instead). The
root seed varies the whole corpus; the grid config carries only the
profile name (plus an optional scripted-chaos block for self-tests), so
cache keys and fingerprints stay small and stable.

Grid presets are ``"<profile>"`` or ``"<profile>:<count>"`` —
``"smoke"``, ``"smoke:200"``, ``"hostile:1000"``.

:func:`run_fuzz` is the full loop the CLI drives: run the campaign,
collect oracle violations and quarantined crashes, shrink every
violating scenario (:mod:`repro.harness.fuzz.shrink`) and write each
minimized reproducer to ``<artifacts>/repro_<seed>.json`` — a standalone
scenario file that replays the failure via
``python -m repro scenario replay``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.harness.campaign import (
    CampaignExperiment,
    CampaignResult,
    FaultPolicy,
    SampleRecord,
    register_experiment,
    run_campaign,
)
from repro.harness.fuzz.generator import (
    ScenarioGenerator,
    get_profile,
    scenario_to_json,
)
from repro.harness.fuzz.shrink import ShrinkResult, shrink_scenario
from repro.harness.timing import PhaseTimer

#: Scenarios per profile when the preset names no explicit count.
DEFAULT_COUNTS = {"smoke": 25, "default": 50, "hostile": 100}


def sample_scenario(config: dict, seed: int) -> dict:
    """The scenario a fuzz grid point runs — pure function of its record.

    ``config["scenario"]`` (explicit scenario, used when re-checking a
    minimized reproducer through the campaign machinery) wins over
    generation; ``config["chaos"]`` is merged in either way, which is
    how the self-test grid arms a scripted engine bug.
    """
    if "scenario" in config:
        scenario = json.loads(json.dumps(config["scenario"]))
    else:
        scenario = ScenarioGenerator(seed).generate(config["profile"])
    if "chaos" in config:
        scenario["chaos"] = json.loads(json.dumps(config["chaos"]))
    return scenario


def swarm_scenario(config: dict, seed: int) -> dict:
    """The swarm config a ``kind="swarm"`` grid point runs.

    Same contract as :func:`sample_scenario`: an explicit
    ``config["scenario"]`` (replaying a saved reproducer) wins over
    generation from the record seed.
    """
    if "scenario" in config:
        return json.loads(json.dumps(config["scenario"]))
    return ScenarioGenerator(seed).generate_swarm(config["profile"])


def fuzz_sample(config: dict, seed: int, timer: PhaseTimer) -> dict:
    """Generate one scenario, run the oracle suite, return the verdict."""
    # Import here as well as module level: supervised pool workers
    # re-import this module by name and need the runner regardless of
    # what the parent had loaded.
    from repro.harness.oracles import run_scenario_oracles, run_swarm_oracles

    if config.get("kind") == "swarm":
        with timer.phase("generate"):
            scenario = swarm_scenario(config, seed)
        with timer.phase("oracles"):
            report = run_swarm_oracles(scenario)
        return {
            "profile": config.get("profile"),
            "kind": "swarm",
            "k_leaders": scenario["k_leaders"],
            "rho": scenario["rho"],
            "n_pois": scenario["n_pois"],
            "n_faults": len(scenario.get("faults", [])),
            "oracles": report.to_dict(),
        }
    with timer.phase("generate"):
        scenario = sample_scenario(config, seed)
    with timer.phase("oracles"):
        report = run_scenario_oracles(scenario)
    return {
        "profile": config.get("profile"),
        "n_uavs": len(scenario.get("uavs", [])),
        "n_faults": len(scenario.get("faults", [])),
        "n_attacks": len(scenario.get("attacks", [])),
        "oracles": report.to_dict(),
    }


def fuzz_grid(preset: str) -> list[dict]:
    """Resolve ``"<profile>"`` / ``"<profile>:<count>"`` into grid configs.

    Profiles with a non-zero ``swarm_share`` dedicate that trailing
    fraction of the grid to swarm-tasking scenarios (``kind="swarm"``);
    the SAR prefix keeps its case indices, so adding swarm coverage
    never re-seeds the existing corpus.
    """
    name, _, count_text = preset.partition(":")
    profile = get_profile(name)  # raises KeyError for unknown profiles
    if count_text:
        count = int(count_text)
        if count < 1:
            raise ValueError(f"fuzz grid {preset!r}: count must be >= 1")
    else:
        count = DEFAULT_COUNTS[profile.name]
    configs = [{"profile": profile.name, "case": index} for index in range(count)]
    n_swarm = int(count * profile.swarm_share)
    for config in configs[count - n_swarm :]:
        config["kind"] = "swarm"
    return configs


def summarize_fuzz(result: CampaignResult) -> str:
    """One-paragraph human summary of a fuzz campaign's oracle verdicts."""
    records = result.records
    violating = [r for r in records if r.oracles and not r.oracles["passed"]]
    crashed = [r for r in records if r.status != "ok"]
    checked = sum(len(r.oracles["checked"]) for r in records if r.oracles)
    lines = [
        f"fuzz[{result.grid}]: {len(records)} scenarios, "
        f"{checked} oracle checks, {len(violating)} violating, "
        f"{len(crashed)} crashed",
    ]
    for record in violating:
        oracles = ", ".join(
            sorted({v["oracle"] for v in record.oracles["violations"]})
        )
        lines.append(f"  seed {record.seed}: VIOLATED {oracles}")
    for record in crashed:
        error = record.error or {}
        lines.append(
            f"  seed {record.seed}: CRASHED "
            f"{error.get('type', '?')}: {error.get('message', '?')}"
        )
    return "\n".join(lines)


FUZZ_EXPERIMENT = register_experiment(
    CampaignExperiment(
        name="fuzz",
        sample_fn=fuzz_sample,
        grids=fuzz_grid,
        version="1",
        describe=(
            "procedurally generated scenarios checked against the "
            "property-oracle suite (profiles: smoke, default, hostile; "
            "preset 'profile' or 'profile:count')"
        ),
        summarize=summarize_fuzz,
        presets=("smoke", "default", "hostile"),
    )
)


@dataclass
class FuzzOutcome:
    """A finished fuzzing run: campaign + violations + minimized repros."""

    campaign: CampaignResult
    #: Records whose oracle verdict failed (status still ``"ok"``).
    violations: list[SampleRecord] = field(default_factory=list)
    #: Quarantined records (generator or harness crash).
    crashes: list[SampleRecord] = field(default_factory=list)
    #: Seed → written minimized-reproducer path.
    repro_paths: dict[int, Path] = field(default_factory=dict)
    #: Seed → shrink result for each written reproducer.
    shrink_results: dict[int, ShrinkResult] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations and not self.crashes


def run_fuzz(
    profile: str = "default",
    count: int | None = None,
    root_seed: int = 0,
    workers: int = 1,
    cache_dir: str | Path | None = None,
    manifest_path: str | Path | None = None,
    artifacts_dir: str | Path = "artifacts",
    chaos: dict | None = None,
    shrink: bool = True,
    max_shrink: int = 5,
    policy: FaultPolicy | None = None,
    resume: bool = False,
) -> FuzzOutcome:
    """Run a fuzzing campaign; shrink and save every violation found.

    ``chaos`` (a scenario ``"chaos"`` block) arms a scripted engine bug
    in every generated scenario — the intentionally-broken-engine path
    used to prove the loop catches, shrinks and reports failures. With
    it the grid is custom (chaos participates in configs, cache keys and
    the fingerprint); without it the preset-string grid keeps the
    documented deterministic fingerprint.

    At most ``max_shrink`` violations are shrunk (shrinking replays each
    scenario many times); the rest are still listed in the outcome.
    """
    preset = profile if count is None else f"{profile}:{count}"
    grid: str | list[dict] = preset
    if chaos is not None:
        grid = [dict(cfg, chaos=chaos) for cfg in fuzz_grid(preset)]
    result = run_campaign(
        FUZZ_EXPERIMENT,
        grid=grid,
        root_seed=root_seed,
        workers=workers,
        cache_dir=cache_dir,
        manifest_path=manifest_path,
        policy=policy,
        resume=resume,
    )
    outcome = FuzzOutcome(campaign=result)
    for record in result.records:
        if record.status != "ok":
            outcome.crashes.append(record)
        elif record.oracles and not record.oracles["passed"]:
            outcome.violations.append(record)
    if not shrink:
        return outcome
    for record in outcome.violations[:max_shrink]:
        if record.config.get("kind") == "swarm":
            # No shrinker speaks the swarm-config shape (yet); the raw
            # generated config is already small and replays the failure
            # via run_swarm_oracles, so save it as-is.
            scenario = swarm_scenario(record.config, record.seed)
            path = Path(artifacts_dir) / f"repro_{record.seed}.json"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(scenario_to_json(scenario), encoding="utf-8")
            outcome.repro_paths[record.seed] = path
            continue
        scenario = sample_scenario(record.config, record.seed)
        target = record.oracles["violations"][0]["oracle"]
        shrunk = shrink_scenario(scenario, target_oracle=target)
        path = Path(artifacts_dir) / f"repro_{record.seed}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(scenario_to_json(shrunk.config), encoding="utf-8")
        outcome.repro_paths[record.seed] = path
        outcome.shrink_results[record.seed] = shrunk
    return outcome
