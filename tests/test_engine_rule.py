"""The world builders pick the engine from the fleet size.

Below ``VECTORIZED_MIN_UAVS`` UAVs the per-UAV (scalar) path is the faster
one, from there up the vectorized fleet engine is. Both are bit-identical,
so the rule only moves wall time; these tests pin where it switches and
that everything above the builders follows it.
"""

from __future__ import annotations

import pytest

from repro.core.batch import BatchAssurancePlane, ScalarAssurancePlane, build_assurance
from repro.experiments.common import build_three_uav_world
from repro.experiments.fleet_scale import run_assurance_scale_point
from repro.harness.oracles import run_scenario_oracles
from repro.scenario import load_scenario
from repro.uav.world import VECTORIZED_MIN_UAVS, engine_for


def _scenario_config(n_uavs: int) -> dict:
    return {
        "seed": 5,
        "uavs": [
            {"id": f"uav{i + 1}", "base": [10.0 * i, 0.0, 0.0]}
            for i in range(n_uavs)
        ],
    }


def test_threshold_sits_at_the_measured_crossover():
    assert VECTORIZED_MIN_UAVS == 10
    assert engine_for(VECTORIZED_MIN_UAVS - 1) == "scalar"
    assert engine_for(VECTORIZED_MIN_UAVS) == "vectorized"


@pytest.mark.parametrize("n_uavs, engine", [(3, "scalar"), (9, "scalar"), (10, "vectorized")])
def test_three_uav_builder_follows_the_rule(n_uavs, engine):
    world = build_three_uav_world(seed=1, n_persons=0, n_uavs=n_uavs).world
    assert world.engine == engine


@pytest.mark.parametrize("n_uavs, engine", [(3, "scalar"), (9, "scalar"), (10, "vectorized")])
def test_scenario_loader_follows_the_rule(n_uavs, engine):
    assert load_scenario(_scenario_config(n_uavs)).world.engine == engine


@pytest.mark.parametrize(
    "n_uavs, plane", [(9, ScalarAssurancePlane), (10, BatchAssurancePlane)]
)
def test_assurance_plane_matches_the_world(n_uavs, plane):
    for world in (
        build_three_uav_world(seed=1, n_persons=0, n_uavs=n_uavs).world,
        load_scenario(_scenario_config(n_uavs)).world,
    ):
        assert type(build_assurance(world)) is plane


@pytest.mark.parametrize("n_uavs, engine", [(3, "scalar"), (50, "vectorized")])
def test_assurance_scale_point_reports_the_plane_that_ran(n_uavs, engine):
    result = run_assurance_scale_point(n_uavs, seed=21, max_time_s=4.0)
    assert result["assurance_engine"] == engine
    assert result["assurance_cycles"] > 0


def test_oracles_still_run_both_engines_on_a_small_fleet():
    report = run_scenario_oracles(_scenario_config(3), horizon_s=4.0)
    assert report.passed
    assert {"engine_lockstep", "assurance_lockstep"} <= set(report.checked)
