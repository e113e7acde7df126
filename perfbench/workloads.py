"""Benchmark workloads: seeded inputs, one operation, output checks.

A workload turns ``--seed`` into a fixed cycle of operation inputs; the
benchmark loops over that cycle as a closed loop with one client. Every
driver is called with its defaults — never with an ``engine=`` argument —
so the benchmark measures whatever runtime the package ships by default
and keeps working when alternative runtimes are deleted. Checks hold the
paper's headline numbers to stated tolerances rather than to bit-exact
goldens, so a change that regenerates goldens still passes them.

Importing this module imports the package from this checkout's ``src/``
and refuses any other copy, so a checkout without sources fails loudly.
"""

from __future__ import annotations

import hashlib
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import repro  # noqa: E402

if Path(repro.__file__).resolve().parent != ROOT / "src" / "repro":
    raise ImportError(f"repro imported from {repro.__file__}, not from {ROOT / 'src'}")

from repro.experiments.common import build_three_uav_world  # noqa: E402
from repro.experiments.fig5_battery import run_fig5_battery_experiment  # noqa: E402
from repro.experiments.fig6_spoofing import run_fig6_spoofing_experiment  # noqa: E402
from repro.experiments.fig7_collab_landing import (  # noqa: E402
    run_fig7_collaborative_landing,
)
from repro.experiments.fleet_scale import run_assurance_scale_point  # noqa: E402
from repro.experiments.sar_accuracy import run_sar_accuracy_experiment  # noqa: E402
from repro.harness.campaign import run_campaign  # noqa: E402
from repro.plan.experiment import planner_ablation_grid, urban_config  # noqa: E402
from repro.scenario import load_scenario  # noqa: E402
from repro.swarm.experiment import swarm_sizing_grid  # noqa: E402
from repro.swarm.sim import build_swarm  # noqa: E402

# ------------------------------------------------------------------ checks
#: Fig. 5: the SafeDrones PoF crosses the 0.9 abort threshold here.
FIG5_CROSSING_S = 513.5
FIG5_CROSSING_TOL_S = 5.0
SEC5B_MIN_UNCERTAINTY_HIGH = 0.9
FIG6_MIN_DEVIATION_M = 30.0
FIG6_MAX_EDDI_LATENCY_S = 2.0


def check_fig5(r) -> list[str]:
    """PoF 0.9 crossing at 513.5 s; availability with SESAME above without."""
    problems = []
    t = r.with_sesame.threshold_crossing_time
    if t is None or abs(t - FIG5_CROSSING_S) > FIG5_CROSSING_TOL_S:
        problems.append(
            f"PoF 0.9 crossing at {t} s, expected {FIG5_CROSSING_S} ± {FIG5_CROSSING_TOL_S} s"
        )
    if not r.availability_with > r.availability_without:
        problems.append(
            f"availability with SESAME {r.availability_with} not above "
            f"without {r.availability_without}"
        )
    return problems


def check_sec5b(r) -> list[str]:
    """High-altitude uncertainty > 0.9; accuracy with SESAME above without."""
    problems = []
    if not r.uncertainty_high > SEC5B_MIN_UNCERTAINTY_HIGH:
        problems.append(f"uncertainty_high {r.uncertainty_high} not above 0.9")
    if not r.accuracy_with_sesame > r.accuracy_without_sesame:
        problems.append(
            f"accuracy with SESAME {r.accuracy_with_sesame} not above "
            f"without {r.accuracy_without_sesame}"
        )
    return problems


def check_fig6(r) -> list[str]:
    """Spoofing deviation > 30 m; Security EDDI detects within 2 s."""
    problems = []
    if not r.max_deviation_m > FIG6_MIN_DEVIATION_M:
        problems.append(f"max deviation {r.max_deviation_m} m not above 30 m")
    latency = r.eddi_latency_s
    if latency is None or latency > FIG6_MAX_EDDI_LATENCY_S:
        problems.append(f"EDDI latency {latency} s, expected <= 2 s")
    return problems


def check_fig7(r) -> list[str]:
    """The affected UAV lands, closer to the pad than dead reckoning."""
    problems = []
    if not r.cl_report.landed:
        problems.append("collaborative landing did not land")
    if not r.cl_report.final_error_m < r.baseline_error_m:
        problems.append(
            f"landing error {r.cl_report.final_error_m} m not below "
            f"baseline {r.baseline_error_m} m"
        )
    return problems


def check_fleet(r: dict) -> list[str]:
    """Full coverage, and the assurance plane gave a verdict."""
    problems = []
    if not r["coverage_fraction"] >= 1.0:
        problems.append(f"coverage {r['coverage_fraction']} below 1.0")
    if r["final_verdict"] is None:
        problems.append("assurance plane gave no verdict")
    return problems


def check_planner_record(record) -> list[str]:
    """Every routed leg clears the raw obstacle grid."""
    if not (record.oracles or {}).get("passed"):
        return [f"planned_path_clearance failed: {record.oracles}"]
    return []


def check_swarm_record(record) -> list[str]:
    """The task books close: serviced + orphaned == detected."""
    r = record.result
    if r["serviced"] + r["orphaned"] != r["detected"]:
        return [
            f"books do not close: serviced {r['serviced']} + orphaned "
            f"{r['orphaned']} != detected {r['detected']}"
        ]
    return []


# -------------------------------------------------------------- operations
@dataclass
class OpResult:
    """What one operation did, for the metrics and the checks."""

    #: Driver calls made: experiment calls, missions or campaign samples.
    calls: int = 0
    #: One entry per failed call: it raised, or its output check failed.
    failures: list[str] = field(default_factory=list)
    #: Digest of every call's outputs, minus wall-clock fields; traced and
    #: untraced runs of one input must agree on it.
    digest: list[str] = field(default_factory=list)
    #: Which driver the call was (paper-suite: which experiment).
    label: str = ""
    #: Simulated seconds the operation covered, where the outputs say.
    sim_s: float = 0.0
    #: Summed sample walls of a campaign operation (None otherwise).
    sample_wall_s: float | None = None


def _digest(value: Any) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def _call(op: OpResult, label: str, driver: Callable[[], Any], check) -> Any:
    """One checked driver call; a raise counts as a failed call."""
    op.calls += 1
    op.label = label
    try:
        result = driver()
    except Exception as exc:  # a crashing driver is a failed call, not a crash
        op.failures.append(f"{label}: raised {exc!r}")
        return None
    problems = check(result)
    if problems:
        op.failures.append(f"{label}: " + "; ".join(problems))
    return result


#: paper-suite: the four headline experiments at their CLI default seeds.
PAPER_DRIVERS = {
    "fig5": (run_fig5_battery_experiment, check_fig5),
    "sec5b": (run_sar_accuracy_experiment, check_sec5b),
    "fig6": (run_fig6_spoofing_experiment, check_fig6),
    "fig7": (run_fig7_collaborative_landing, check_fig7),
}


def paper_inputs(seed: int) -> list[str]:
    # The experiments keep their default seeds (the checks are stated
    # for them); the workload seed only rotates their order in a round.
    keys = list(PAPER_DRIVERS)
    k = seed % len(keys)
    return keys[k:] + keys[:k]


def run_paper_experiment(key: str) -> OpResult:
    op = OpResult()
    driver, check = PAPER_DRIVERS[key]
    result = _call(op, key, driver, check)
    if result is not None:
        op.digest.append(_digest(result))
    return op


#: fleet-50-assured: missions per cycle, each with its own drawn seed.
FLEET_UAVS = 50
FLEET_CYCLE = 64
#: Result fields that hold wall-clock readings, not simulation outputs.
FLEET_WALL_FIELDS = ("wall_s", "assurance_cycle_ms")


def fleet_inputs(seed: int) -> list[int]:
    rng = np.random.default_rng(seed)
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=FLEET_CYCLE)]


def run_fleet_mission(mission_seed: int) -> OpResult:
    op = OpResult()
    result = _call(
        op, "mission",
        lambda: run_assurance_scale_point(n_uavs=FLEET_UAVS, seed=mission_seed),
        check_fleet,
    )
    if result is not None:
        op.sim_s = result["sim_time_s"]
        op.digest.append(
            _digest({k: v for k, v in result.items() if k not in FLEET_WALL_FIELDS})
        )
    return op


def seeded_grid(preset_grid: list[dict], seed: int) -> list[dict]:
    """A campaign preset with its pinned scenario seeds drawn from ``seed``.

    The preset's shape (strategies, K × ρ points, which points share a
    world) is kept: each distinct pinned seed maps to one drawn seed.
    """
    pinned = sorted({config["seed"] for config in preset_grid})
    drawn = np.random.default_rng(seed).integers(0, 2**31 - 1, size=len(pinned))
    mapping = dict(zip(pinned, (int(s) for s in drawn)))
    return [dict(config, seed=mapping[config["seed"]]) for config in preset_grid]


def run_grid(experiment: str, grid: list[dict], check_record) -> OpResult:
    """One pass of a campaign grid: inline, one worker, no result cache."""
    op = OpResult(calls=len(grid))
    try:
        campaign = run_campaign(experiment, grid, workers=1, cache_dir=None)
    except Exception as exc:  # the whole pass failed: every sample counts
        op.failures.extend(f"{experiment}: raised {exc!r}" for _ in grid)
        return op
    op.sample_wall_s = sum(record.wall_time_s for record in campaign.records)
    for record in campaign.records:
        if record.status != "ok":
            problems = [f"status {record.status}: {record.error}"]
        else:
            problems = check_record(record)
        if problems:
            op.failures.append(f"sample {record.index}: " + "; ".join(problems))
    op.digest.append(campaign.fingerprint)
    return op


#: urban-plan: the planner-ablation smoke grid, one campaign pass per grid
#: point so each bimodal (pattern vs planned) sample is timed on its own.
URBAN_GRID = "smoke"


def urban_inputs(seed: int) -> list[list[dict]]:
    return [[config] for config in seeded_grid(planner_ablation_grid(URBAN_GRID), seed)]


def swarm_inputs(seed: int) -> list[list[dict]]:
    return [seeded_grid(swarm_sizing_grid("smoke"), seed)]


def run_swarm_grid(grid: list[dict]) -> OpResult:
    op = run_grid("swarm-sizing", grid, check_swarm_record)
    op.sim_s = sum(config["horizon_s"] for config in grid)
    return op


# --------------------------------------------------------------- registry
@dataclass(frozen=True)
class Workload:
    """One benchmark workload (its ``why`` lives in ``BENCHMARK.json``)."""

    name: str
    #: What one timed operation is.
    op: str
    #: What ``--seed`` draws.
    seed_use: str
    #: Layers the workload loads heavily, and ones it loads lightly or not
    #: at all (a change to those should leave it unmoved).
    heavy: tuple[str, ...]
    light: tuple[str, ...]
    #: seed -> the cycle of operation inputs.
    inputs: Callable[[int], list]
    #: The first world or scenario the workload builds (timed in set-up).
    first_build: Callable[[Any], Any]
    #: One driver call (or campaign pass) on one input of the cycle.
    run: Callable[[Any], OpResult]
    #: Consecutive inputs that make one reported operation. Each input is
    #: still timed and scaled on its own, so long rounds track CPU swings.
    round_size: int = 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="paper-suite",
            op="one round of Fig. 5, Sec. V-B, Fig. 6 and Fig. 7 at default seeds",
            seed_use="the order of the four experiments within a round",
            heavy=(
                "uav.sensors.measure", "safedrones.markov.transient", "uav.uav.step",
                "uav.uav.publish_telemetry", "deepknowledge.network.train",
                "safedrones.battery.update", "geo.enu",
            ),
            light=(
                "uav.fleet.step", "core.batch.plane_step", "plan.astar.plan_path",
                "middleware.degraded.publish",
            ),
            inputs=paper_inputs,
            first_build=lambda key: build_three_uav_world(seed=3),
            run=run_paper_experiment,
            round_size=len(PAPER_DRIVERS),
        ),
        Workload(
            name="fleet-50-assured",
            op="one 50-UAV coverage mission with the assurance plane cycling",
            seed_use=f"the {FLEET_CYCLE} mission seeds of the cycle",
            heavy=(
                "uav.fleet.step", "sar.mission.step", "core.batch.safedrones_update",
                "core.batch.plane_step", "security.spoofing.update",
                "middleware.rosbus.publish_many",
            ),
            light=(
                "uav.uav.step", "safedrones.markov.transient", "plan.astar.plan_path",
                "middleware.degraded.publish",
            ),
            inputs=fleet_inputs,
            first_build=lambda mission_seed: build_three_uav_world(
                seed=mission_seed, n_uavs=FLEET_UAVS
            ),
            run=run_fleet_mission,
        ),
        Workload(
            name="urban-plan",
            op="one round of the planner-ablation smoke grid's 4 samples",
            seed_use="the grid's 2 urban-scenario seeds (persons and sensor noise)",
            heavy=(
                "plan.astar.plan_path", "plan.routing.two_opt", "uav.uav.step",
                "uav.sensors.measure", "sar.mission.step", "plan.grid.build",
            ),
            light=(
                "core.batch.plane_step", "safedrones.markov.transient",
                "middleware.degraded.publish", "uav.fleet.step",
            ),
            inputs=urban_inputs,
            first_build=lambda grid: load_scenario(
                urban_config(grid[0]["seed"], grid[0]["persons"])
            ),
            run=lambda grid: run_grid("planner-ablation", grid, check_planner_record),
            round_size=len(planner_ablation_grid(URBAN_GRID)),
        ),
        Workload(
            name="swarm-lossy",
            op="one pass of the swarm-sizing smoke grid (3 samples, one faulted)",
            seed_use="the grid's swarm-scenario seed (PoI layout and link losses)",
            heavy=(
                "middleware.degraded.publish", "middleware.degraded.advance_clock",
                "middleware.reliable.step", "swarm.protocol.leader_step",
                "swarm.protocol.follower_step", "uav.swarm_kinematics.step",
            ),
            light=(
                "uav.world.step", "middleware.rosbus.publish_many",
                "safedrones.markov.transient", "plan.astar.plan_path",
            ),
            inputs=swarm_inputs,
            first_build=lambda grid: build_swarm(grid[0]),
            run=run_swarm_grid,
        ),
    )
}
