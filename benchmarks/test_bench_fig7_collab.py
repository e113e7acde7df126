"""Bench: regenerate Fig. 7 (collaborative localization guiding the
GPS-denied spoofed UAV to a high-precision safe landing)."""

from conftest import print_table, run_once

from repro.experiments.fig7_collab_landing import run_fig7_collaborative_landing


def test_fig7_collaborative_safe_landing(benchmark):
    result = run_once(benchmark, run_fig7_collaborative_landing)

    # Trajectory samples of spoofed + assisting UAV (the Fig. 7 tracks).
    n = len(result.spoofed_trajectory)
    rows = []
    for frac in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0):
        idx = min(n - 1, int(frac * (n - 1)))
        spoofed = result.spoofed_trajectory[idx]
        assistant = result.assist_trajectory[idx]
        rows.append(
            [f"{frac:.1f}",
             f"({spoofed[0]:.1f}, {spoofed[1]:.1f}, {spoofed[2]:.1f})",
             f"({assistant[0]:.1f}, {assistant[1]:.1f}, {assistant[2]:.1f})"]
        )
    print_table(
        "Fig. 7 — spoofed UAV (GPS-denied) and assisting UAV tracks",
        ["mission fraction", "spoofed UAV (E,N,U)", "assisting UAV (E,N,U)"],
        rows,
    )
    print_table(
        "Landing outcome (paper: high-precision landing without GPS)",
        ["metric", "value"],
        [
            ["landed", result.cl_report.landed],
            ["landing error [m]", f"{result.cl_report.final_error_m:.2f}"],
            ["dead-reckoning baseline error [m]", f"{result.baseline_error_m:.2f}"],
            ["mean CL estimate error [m]", f"{result.mean_estimate_error_m:.2f}"],
            ["mean CL sigma [m] (< 0.75 ConSert bound)",
             f"{result.cl_report.mean_cl_sigma_m:.2f}"],
            ["sightings", result.n_sightings],
            ["duration [s]", f"{result.cl_report.duration_s:.1f}"],
        ],
    )
    benchmark.extra_info["landing_error_m"] = result.cl_report.final_error_m
    benchmark.extra_info["baseline_error_m"] = result.baseline_error_m

    assert result.cl_report.landed
    assert result.cl_report.final_error_m < result.baseline_error_m
