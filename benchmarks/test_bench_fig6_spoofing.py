"""Bench: regenerate Fig. 6 (trajectory deviation under ROS message
spoofing, with immediate Security EDDI detection)."""

from conftest import print_table, run_once

from repro.experiments.fig6_spoofing import run_fig6_spoofing_experiment


def test_fig6_spoofing_trajectory_deviation(benchmark):
    result = run_once(benchmark, run_fig6_spoofing_experiment)

    rows = []
    for target in (30, 60, 90, 120, 150, 180, 210, 235):
        idx = min(range(len(result.times)), key=lambda i: abs(result.times[i] - target))
        clean = result.clean_trajectory[idx]
        attacked = result.attacked_trajectory[idx]
        rows.append(
            [f"{result.times[idx]:.0f}",
             f"({clean[0]:.0f}, {clean[1]:.0f})",
             f"({attacked[0]:.0f}, {attacked[1]:.0f})",
             f"{result.deviation_m[idx]:.1f}"]
        )
    print_table(
        "Fig. 6 — mapping trajectory, clean vs under spoofing attack",
        ["t [s]", "clean (E,N)", "attacked (E,N)", "deviation [m]"],
        rows,
    )
    print_table(
        "Detection",
        ["channel", "latency after onset [s]"],
        [
            ["Security EDDI (attack-tree root)", f"{result.eddi_latency_s:.1f}"],
            ["IMU cross-check (cumulative divergence)", f"{result.sensor_latency_s:.1f}"],
        ],
    )
    print(f"\nIDS alerts: {result.ids_alert_count}; "
          f"attack path: {' -> '.join(result.attack_path)}")
    benchmark.extra_info["max_deviation_m"] = result.max_deviation_m
    benchmark.extra_info["eddi_latency_s"] = result.eddi_latency_s

    assert result.max_deviation_m > 30.0
    assert result.eddi_latency_s <= 2.0
