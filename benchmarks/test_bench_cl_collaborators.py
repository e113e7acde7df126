"""Ablation bench: collaborative localization precision vs collaborator
count.

The Fig. 1 ConSert promises "Collaborative Navigation with accuracy
<0.75 m"; this sweep shows how the fused estimate precision and the final
landing error scale from one to two assisting UAVs."""

from conftest import print_table, run_once

from repro.experiments.fig7_collab_landing import run_fig7_collaborative_landing


def sweep():
    results = {}
    for n in (1, 2):
        results[n] = run_fig7_collaborative_landing(n_assistants=n)
    return results


def test_collaborator_count_sweep(benchmark):
    results = run_once(benchmark, sweep)

    rows = []
    for n, result in sorted(results.items()):
        rows.append(
            [n,
             f"{result.cl_report.mean_cl_sigma_m:.2f}",
             f"{result.mean_estimate_error_m:.2f}",
             f"{result.cl_report.final_error_m:.2f}",
             result.cl_report.landed,
             result.n_sightings]
        )
    print_table(
        "CL ablation — collaborators vs precision (baseline landing error: "
        f"{results[2].baseline_error_m:.1f} m)",
        ["collaborators", "mean sigma [m]", "mean est err [m]",
         "landing err [m]", "landed", "sightings"],
        rows,
    )
    # Both configurations land and beat the dead-reckoning baseline.
    for result in results.values():
        assert result.cl_report.landed
        assert result.cl_report.final_error_m < result.baseline_error_m
    # Two collaborators tighten the fused estimate.
    assert (
        results[2].cl_report.mean_cl_sigma_m
        <= results[1].cl_report.mean_cl_sigma_m + 0.05
    )
