"""The full security response chain: Fig. 6 detection + Fig. 7 mitigation.

Flies the area-mapping mission under a ROS message spoofing attack,
shows the trajectory deviation and both detection channels (Security EDDI
over IDS alerts; IMU cross-check), then runs the Collaborative
Localization guided landing that brings the GPS-denied UAV down on the
designated point.

Run:  python examples/spoofing_attack_response.py
"""

from repro.experiments.fig6_spoofing import run_fig6_spoofing_experiment
from repro.experiments.fig7_collab_landing import run_fig7_collaborative_landing


def main() -> None:
    print("=== Fig. 6: spoofing attack on area mapping ===")
    fig6 = run_fig6_spoofing_experiment()
    print(f"attack starts:                 t={fig6.attack_start_s:.0f} s")
    print(f"max trajectory deviation:      {fig6.max_deviation_m:.1f} m")
    print(f"IDS alerts raised:             {fig6.ids_alert_count}")
    print(f"Security EDDI detection:       +{fig6.eddi_latency_s:.1f} s after onset")
    print(f"IMU cross-check detection:     +{fig6.sensor_latency_s:.1f} s after onset")
    print(f"attack path traced:            {' -> '.join(fig6.attack_path)}")

    # Deviation profile at a few checkpoints.
    print("\ntrajectory deviation over time:")
    for target in (30.0, 60.0, 90.0, 120.0, 180.0, 230.0):
        idx = min(range(len(fig6.times)), key=lambda i: abs(fig6.times[i] - target))
        bar = "#" * int(fig6.deviation_m[idx] / 2.0)
        print(f"  t={fig6.times[idx]:6.1f}s  {fig6.deviation_m[idx]:6.1f} m  {bar}")

    print("\n=== Fig. 7: collaborative localization safe landing ===")
    fig7 = run_fig7_collaborative_landing()
    report = fig7.cl_report
    print(f"GPS available to spoofed UAV:  none (denied)")
    print(f"collaborator sightings:        {fig7.n_sightings}")
    print(f"mean CL estimate error:        {fig7.mean_estimate_error_m:.2f} m")
    print(f"mean CL sigma:                 {report.mean_cl_sigma_m:.2f} m "
          f"(ConSert bound: < 0.75 m)")
    print(f"landed:                        {report.landed}")
    print(f"landing error vs target:       {report.final_error_m:.2f} m")
    print(f"dead-reckoning baseline error: {fig7.baseline_error_m:.2f} m")
    print(f"landing duration:              {report.duration_s:.1f} s")


if __name__ == "__main__":
    main()
