"""Bench: evaluate the Fig. 1 hierarchical ConSert network over the
scenario matrix, and measure the runtime cost of one full fleet
evaluation (the per-cycle overhead the EDDI loop pays)."""

from conftest import print_table, run_once

from repro.core.decider import MissionDecider
from repro.core.uav_network import UavConSertNetwork
from repro.experiments.conserts_network import run_conserts_scenario_matrix
from repro.experiments.conserts_network import UavCondition, apply_condition


def test_conserts_scenario_matrix(benchmark):
    results = run_once(benchmark, run_conserts_scenario_matrix)

    rows = []
    for result in results:
        degraded = result.conditions[0]
        rows.append(
            [degraded.reliability,
             "ok" if degraded.gps_ok else "LOST",
             "yes" if degraded.attack else "no",
             "ok" if degraded.camera_ok else "DEAD",
             result.guarantees[0].value,
             result.navigation[0],
             result.verdict.value]
        )
    print_table(
        "Fig. 1 — single-UAV degradation matrix (other two UAVs healthy)",
        ["reliability", "gps", "attack", "camera", "uav guarantee",
         "navigation", "mission verdict"],
        rows,
    )
    benchmark.extra_info["n_scenarios"] = len(results)
    assert len(results) == 24


def test_fleet_evaluation_speed(benchmark):
    """Per-cycle cost of a full 3-UAV ConSert + decider evaluation."""
    decider = MissionDecider()
    networks = []
    for i in range(3):
        network = UavConSertNetwork(uav_id=f"uav{i + 1}")
        apply_condition(network, UavCondition())
        decider.add_uav(network)
        networks.append(network)

    def evaluate_cycle():
        networks[0].set_reliability_level("medium")
        networks[0].set_reliability_level("high")
        return decider.decide()

    decision = benchmark(evaluate_cycle)
    assert decision.verdict.value == "mission_completed_as_planned"
