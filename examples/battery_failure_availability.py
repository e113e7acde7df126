"""Fig. 5 scenario: battery fault, SafeDrones monitoring, availability.

Reproduces the paper's Sec. V-A experiment: one UAV's battery collapses
from 80% to 40% SoC at t=250 s due to a thermal fault. Without SESAME the
UAV aborts immediately and pays return / swap / transit overhead; with
SESAME the SafeDrones Markov monitor lets it finish the mission first.
Prints the probability-of-failure curve (ASCII) and the availability
comparison.

Run:  python examples/battery_failure_availability.py
"""

from repro.experiments.fig5_battery import run_fig5_battery_experiment


def ascii_curve(times, values, width=72, height=12, threshold=0.9):
    """Render a single series as a crude ASCII plot with a threshold line."""
    if not times:
        return "(no data)"
    t_max = times[-1]
    grid = [[" "] * width for _ in range(height)]
    for t, v in zip(times, values):
        col = min(width - 1, int(t / t_max * (width - 1)))
        row = min(height - 1, int((1.0 - v) * (height - 1)))
        grid[row][col] = "*"
    threshold_row = min(height - 1, int((1.0 - threshold) * (height - 1)))
    for col in range(width):
        if grid[threshold_row][col] == " ":
            grid[threshold_row][col] = "-"
    lines = ["".join(row) for row in grid]
    lines.append(f"0s{' ' * (width - 8)}{t_max:.0f}s")
    return "\n".join(lines)


def main() -> None:
    result = run_fig5_battery_experiment()
    trace = result.with_sesame

    print("Probability of failure (with SESAME), '-' marks the 0.9 threshold:")
    print(ascii_curve(trace.times, trace.pof))
    print()
    print(f"nominal mission duration:     {result.nominal_mission_s:.0f} s")
    print(f"battery fault injected at:    250 s (SoC 80% -> 40%)")
    crossing = trace.threshold_crossing_time
    print(f"PoF threshold (0.9) crossed:  {crossing:.0f} s" if crossing else "never")
    print()
    header = f"{'metric':<28} {'with SESAME':>14} {'without':>14}"
    print(header)
    print("-" * len(header))
    for name, with_value, without_value in result.summary_rows():
        print(f"{name:<28} {with_value:>14.3f} {without_value:>14.3f}")
    print()
    print(
        f"availability improvement:     "
        f"{100 * result.availability_improvement:.1f} percentage points "
        f"(paper: ~11)"
    )
    print(
        f"completion time improvement:  {100 * result.completion_improvement:.1f}% "
        f"(paper: ~11%)"
    )


if __name__ == "__main__":
    main()
