#!/usr/bin/env python3
"""SESAME reproduction benchmark: one workload per run, one JSON line out.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads are defined in ``workloads.py``; why each was chosen is in
``BENCHMARK.json``. Each is a closed loop with one client — the next
operation starts when the previous one returns — run in this process with
``workers=1``, no result cache and BLAS pinned to one thread. A first,
untimed operation warms lazy imports and caches; then operations run
until ``--seconds`` have passed (and at least ``MIN_OPS`` of them). An
operation is one round of ``round_size`` driver calls or campaign passes
(one, except paper-suite's round of its four experiments).

``--trace 0`` measures the end-to-end metrics with tracing off:

    setup_s      median cold start (import + first world or scenario
                 build) over SETUP_RUNS fresh interpreters
    op_s_p50     median time of one operation
    calls_per_s  driver calls per second: experiment calls, missions or
                 campaign samples
    peak_rss_mb  peak resident memory of this process

Times are in reference-CPU seconds: each driver call's wall time is scaled
by how fast the host ran a fixed calibration kernel right around it (``calibrate``;
the kernel takes ``CAL_REF_S`` on the reference CPU). On a shared host
the CPU speed a process gets swings by tens of percent over seconds;
the scaling cancels most of that, and leaves any change in the work the
program itself does. Raw wall medians are printed beside them.

``--trace 1`` is the separate traced run (``layers.py``). It runs the
cycle's first operation untraced and then traced, requires identical
outputs from both, and reports per layer: ``.calls`` made during that
first operation (an exact count for a seed), ``.self_us`` per call and
``.share`` of traced wall time over all traced operations; plus
``unattributed.share`` (the shares sum to 100%), ``trace_overhead`` and
the degraded-bus delivery and reliable-channel retransmit ratios with
their base counts.

Every operation's outputs are checked; a call that raises or fails its
check counts as failed. A table goes to stdout; the last stdout line is
the JSON result: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

import os

# Pinned before numpy loads anywhere in this process or its children.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from layers import HARNESS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent

#: Fresh interpreters timed per run for ``setup_s``.
SETUP_RUNS = 3
#: Timed operations a run makes at least, however short ``--seconds``.
MIN_OPS = 3
#: ``calibrate()`` seconds on the reference CPU (uncontended median on a
#: 2-vCPU Intel Xeon VM); times are reported in seconds of that CPU.
CAL_REF_S = 0.006

#: End-to-end metric -> unit (``--trace 0``).
E2E_UNITS = {
    "setup_s": "s",
    "op_s_p50": "s",
    "calls_per_s": "1/s",
    "peak_rss_mb": "MB",
}

_CAL_MATRIX = np.random.default_rng(0).random((40, 40))


def _kernel() -> None:
    table, x = {}, 0
    for j in range(40_000):
        table[j & 255] = x
        x += j * j
    for _ in range(200):
        _CAL_MATRIX @ _CAL_MATRIX
        np.sort(_CAL_MATRIX, axis=1)


def calibrate() -> float:
    """Seconds the host takes for a fixed mix of interpreter and NumPy work.

    The mix mirrors the program's own (dict and integer bytecode, small
    matrix products and sorts), so host contention slows both alike. An
    untimed first pass re-warms the caches the last operation evicted, so
    the reading does not depend on the program's memory footprint.
    """
    _kernel()
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


# ------------------------------------------------------------- measuring
def setup_times(name: str, seed: int) -> list[tuple[float, float]]:
    """``(wall_s, calibration_s)`` of ``SETUP_RUNS`` fresh interpreters."""
    times = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), name, str(seed)],
            capture_output=True, text=True, timeout=150,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"set-up probe for {name} exited {proc.returncode}")
        wall, cal = proc.stdout.split()[-2:]
        times.append((float(wall), float(cal)))
    return times


def _round(workload, inputs: list, index: int) -> list:
    """The inputs of round ``index`` of the workload's input cycle."""
    size = workload.round_size
    return [inputs[(index * size + j) % len(inputs)] for j in range(size)]


def measure(workload, seed: int, seconds: float) -> dict:
    """Untraced closed loop: a warm-up round, then timed rounds; every
    operation in them is bracketed by calibration runs."""
    inputs = workload.inputs(seed)
    ops = [workload.run(x) for x in _round(workload, inputs, 0)]
    walls, scaled, rounds, raw_rounds = [], [], [], []
    cal = calibrate()
    start = time.perf_counter()
    while len(rounds) < MIN_OPS or time.perf_counter() - start < seconds:
        round_scaled = round_wall = 0.0
        for x in _round(workload, inputs, len(rounds) + 1):
            op_start = time.perf_counter()
            ops.append(workload.run(x))
            wall = time.perf_counter() - op_start
            cal_after = calibrate()
            walls.append(wall)
            scaled.append(wall * CAL_REF_S / ((cal + cal_after) / 2))
            round_scaled += scaled[-1]
            round_wall += wall
            cal = cal_after
        rounds.append(round_scaled)
        raw_rounds.append(round_wall)
    return {
        "ops": ops, "warmup": workload.round_size, "walls": walls,
        "scaled": scaled, "rounds": rounds, "raw_rounds": raw_rounds,
    }


def measure_traced(workload, seed: int, seconds: float) -> dict:
    """Warm-up, the first round untraced, then traced rounds."""
    inputs = workload.inputs(seed)
    ops = [workload.run(x) for x in _round(workload, inputs, 0)]
    start = time.perf_counter()
    reference = [workload.run(x) for x in _round(workload, inputs, 0)]
    untraced_s = time.perf_counter() - start
    ops += reference

    tracer = Tracer()
    traced_s = harness_s = 0.0
    harness_calls = 0
    first = None
    with tracer:
        start = time.perf_counter()
        index = 0
        while first is None or time.perf_counter() - start < seconds:
            round_ops, round_wall = [], 0.0
            for x in _round(workload, inputs, index):
                op_start = time.perf_counter()
                op = workload.run(x)
                wall = time.perf_counter() - op_start
                tracer.fold()
                round_ops.append(op)
                round_wall += wall
                if op.sample_wall_s is not None:
                    harness_s += wall - op.sample_wall_s
                    harness_calls += op.calls
            ops += round_ops
            traced_s += round_wall
            index += 1
            links = tracer.take_stats("link")
            channels = tracer.take_stats("channel")
            if first is None:
                first = {
                    "wall_s": round_wall,
                    "calls": list(tracer.calls),
                    "harness_calls": harness_calls,
                    "identical": [op.digest for op in round_ops]
                    == [op.digest for op in reference],
                    "link_sent": sum(s.sent for s in links),
                    "link_delivered": sum(s.delivered for s in links),
                    "channel_sent": sum(s.sent for s in channels),
                    "channel_retries": sum(s.retries for s in channels),
                }
    return {
        "ops": ops,
        "tracer": tracer,
        "first": first,
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "harness_s": harness_s,
        "harness_calls": harness_calls,
    }


# --------------------------------------------------------------- metrics
def e2e_metrics(run: dict, setup: list[tuple[float, float]]) -> dict[str, float]:
    timed = run["ops"][run["warmup"]:]
    return {
        "setup_s": statistics.median(wall * CAL_REF_S / cal for wall, cal in setup),
        "op_s_p50": statistics.median(run["rounds"]),
        "calls_per_s": sum(op.calls for op in timed) / sum(run["scaled"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(run: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced run, as ``name -> (value, unit)``."""
    tracer, first, traced_s = run["tracer"], run["first"], run["traced_s"]
    rows = list(zip(tracer.names, first["calls"], tracer.calls, tracer.self_s))
    rows.append((HARNESS, first["harness_calls"], run["harness_calls"], run["harness_s"]))
    metrics: dict[str, tuple[float, str]] = {}
    for name, first_calls, calls, self_s in rows:
        metrics[f"{name}.calls"] = (first_calls, "count")
        metrics[f"{name}.self_us"] = (1e6 * _ratio(self_s, calls), "us")
        metrics[f"{name}.share"] = (100.0 * self_s / traced_s, "%")
    attributed = sum(tracer.self_s) + run["harness_s"]
    metrics["unattributed.share"] = (100.0 * (traced_s - attributed) / traced_s, "%")
    metrics["trace_overhead"] = (100.0 * (first["wall_s"] / run["untraced_s"] - 1.0), "%")
    metrics["middleware.degraded.sent"] = (first["link_sent"], "count")
    metrics["middleware.degraded.delivery_ratio"] = (
        _ratio(first["link_delivered"], first["link_sent"]), "ratio",
    )
    metrics["middleware.reliable.sent"] = (first["channel_sent"], "count")
    metrics["middleware.reliable.retransmit_ratio"] = (
        _ratio(first["channel_retries"], first["channel_sent"]), "ratio",
    )
    return metrics


# ----------------------------------------------------------------- report
def _print_header(workload, args) -> None:
    print(f"perfbench {workload.name}  seed={args.seed}  seconds={args.seconds}  "
          f"trace={args.trace}")
    print(f"  operation : {workload.op}")
    print(f"  seed draws: {workload.seed_use}")
    print(f"  heavy     : {', '.join(workload.heavy)}")
    print(f"  light     : {', '.join(workload.light)}")


def _print_e2e(run: dict, metrics: dict[str, float], setup) -> None:
    rounds, walls, timed = run["rounds"], run["walls"], run["ops"][run["warmup"]:]
    label = "p90" if len(rounds) >= 10 else "max"
    high = statistics.quantiles(rounds, n=10)[-1] if len(rounds) >= 10 else max(rounds)
    notes = {
        "setup_s": f"median of {len(setup)} cold starts; raw wall "
                   + ", ".join(f"{wall:.3f}" for wall, _ in setup),
        "op_s_p50": f"{label} {high:.4f} s, n={len(rounds)} timed ops; "
                    f"raw wall p50 {statistics.median(run['raw_rounds']):.4f} s",
        "calls_per_s": f"{sum(op.calls for op in timed)} calls; raw wall "
                       f"{sum(op.calls for op in timed) / sum(walls):.4f}/s",
        "peak_rss_mb": "ru_maxrss of this process",
    }
    print(f"{'metric':<13}{'value':>12}  {'unit':<5} note")
    for name, value in metrics.items():
        print(f"{name:<13}{value:>12.4f}  {E2E_UNITS[name]:<5} {notes[name]}")
    # Per-driver times within a round (paper-suite: one per experiment).
    parts: dict[str, list[float]] = {}
    for op, scaled in zip(timed, run["scaled"]):
        parts.setdefault(op.label, []).append(scaled)
    if len(parts) > 1:
        for key, values in parts.items():
            print(f"  {key + '_wall_s':<11}{statistics.median(values):>12.4f}  s     "
                  f"median of {len(values)}")
    sim_s = sum(op.sim_s for op in timed)
    if sim_s:
        print(f"  {'rtf':<11}{sim_s / sum(run['scaled']):>12.1f}  sim s per reference-CPU s")


def _print_layers(run: dict, metrics: dict[str, tuple[float, str]]) -> None:
    tracer = run["tracer"]
    names = [*tracer.names, HARNESS]
    shown = sorted(
        (n for n in names if metrics[f"{n}.share"][0] > 0.0),
        key=lambda n: -metrics[f"{n}.share"][0],
    )
    print(f"{'layer':<44}{'calls/op0':>10}{'self us/call':>14}{'share %':>9}")
    for name in shown:
        print(f"{name:<44}{metrics[f'{name}.calls'][0]:>10}"
              f"{metrics[f'{name}.self_us'][0]:>14.2f}{metrics[f'{name}.share'][0]:>9.2f}")
    print(f"{'unattributed':<44}{'':>10}{'':>14}{metrics['unattributed.share'][0]:>9.2f}")
    total = sum(v for k, (v, _) in metrics.items() if k.endswith(".share"))
    print(f"{'total':<44}{'':>10}{'':>14}{total:>9.2f}")
    idle = len(names) - len(shown)
    print(f"({idle} layers idle on this workload; traced wall {run['traced_s']:.3f} s)")
    print(f"tracing overhead: first op traced {run['first']['wall_s']:.3f} s vs untraced "
          f"{run['untraced_s']:.3f} s = {metrics['trace_overhead'][0]:+.1f}%")
    print(f"degraded bus: {metrics['middleware.degraded.delivery_ratio'][0]:.4f} delivered "
          f"of {metrics['middleware.degraded.sent'][0]} sent; reliable channels: "
          f"{metrics['middleware.reliable.retransmit_ratio'][0]:.4f} retransmits per "
          f"{metrics['middleware.reliable.sent'][0]} sent")


def _report_failures(ops) -> None:
    failures = [f for op in ops for f in op.failures]
    for failure in failures[:10]:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    if len(failures) > 10:
        print(f"perfbench: ... {len(failures) - 10} more failures", file=sys.stderr)


def benchmark(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns the result object printed as JSON."""
    workload = WORKLOADS[name]
    if trace:
        run = measure_traced(workload, seed, seconds)
        metrics = layer_metrics(run)
        identical = run["first"]["identical"]
        if not identical:
            print("perfbench: traced outputs differ from untraced ones", file=sys.stderr)
    else:
        setup = setup_times(name, seed)
        run = measure(workload, seed, seconds)
        values = e2e_metrics(run, setup)
        metrics = {k: (v, E2E_UNITS[k]) for k, v in values.items()}
        identical = True
    ops = run["ops"]
    failed = sum(len(op.failures) for op in ops)
    _report_failures(ops)
    result = {
        "correct": failed == 0 and identical,
        "attempted": sum(op.calls for op in ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if trace:
        _print_layers(run, metrics)
    else:
        _print_e2e(run, values, setup)
    print(f"failed_frac {failed}/{result['attempted']}")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _print_header(WORKLOADS[args.workload], args)
    result = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
